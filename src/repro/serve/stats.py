"""Mergeable online statistics: one shard's view of a live population.

A :class:`ShardStats` ingests batches of :class:`~repro.trace.schema.JobRecord`
and maintains, incrementally, the same aggregates the one-shot batch
path computes over a fully materialized trace:

* per-component and per-hardware-component average shares, at job and
  cNode level (the Figs. 7/8 numbers);
* the bottleneck census (the label view of Fig. 10);
* per-architecture job and cNode counts (the Fig. 5 composition);
* streaming CDF sketches of component shares, step times and cNode
  counts (the Fig. 8 distributions).

Everything is *mergeable*: shards accumulate independently under their
own locks and :meth:`ShardStats.merged` combines them on demand into
whole-population numbers.  Averages and counts merge exactly (modulo
float summation order); CDFs merge exactly while the population fits
the sketch capacity and with ~1/capacity rank error beyond it.

Shards and :func:`batch_reference` evaluate the model under the paper's
one configuration (Table I hardware, the default efficiency and model
options, :data:`DEFAULT_SKETCH_CAPACITY` sketches), so any two merge.

:func:`batch_reference` computes the identical payload through the
one-shot batch path (``core.population`` +
``EmpiricalCDF.from_samples``), which is what the equivalence tests and
the CI smoke job compare a drained service against.  Both label the
census with :func:`repro.core.classify.label_codes`, the one labelling
the census experiment uses too.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..core.classify import (
    Bottleneck,
    bottleneck_census,
    label_codes,
    label_totals,
)
from ..core.hardware import pai_default_hardware
from ..core.population import (
    COMPONENT_KEYS,
    HARDWARE_KEYS,
    FeatureArrays,
    batch_breakdowns,
)
from ..core.timemodel import PAPER_MODEL_OPTIONS
from ..trace.schema import JobRecord
from ..trace.statistics import EmpiricalCDF, StreamingCDF

__all__ = [
    "AGGREGATION_LEVELS",
    "CDF_METRICS",
    "DEFAULT_SKETCH_CAPACITY",
    "ShardStats",
    "batch_reference",
    "payload_leaves",
]

#: The two aggregation levels the paper reports throughout.
AGGREGATION_LEVELS: Tuple[str, ...] = ("job", "cnode")

#: Metrics served as streaming CDFs by ``/cdf/<metric>``.
CDF_METRICS: Tuple[str, ...] = COMPONENT_KEYS + ("step_time", "num_cnodes")

#: Default per-metric sketch capacity: exact CDFs up to this many jobs
#: per (shard, metric, level), bounded memory beyond.
DEFAULT_SKETCH_CAPACITY = 8192


def _zero_levels(keys: Iterable[str]) -> Dict[str, Dict[str, float]]:
    names = tuple(keys)
    return {
        level: {key: 0.0 for key in names} for level in AGGREGATION_LEVELS
    }


class ShardStats:
    """Online, mergeable statistics over a stream of job records."""

    def __init__(self) -> None:
        self.job_count = 0
        self.cnode_total = 0.0
        self.arch_jobs: Dict[str, int] = {}
        self.arch_cnodes: Dict[str, float] = {}
        self.fraction_sums = _zero_levels(COMPONENT_KEYS)
        self.hardware_sums = _zero_levels(HARDWARE_KEYS)
        self.census_sums = _zero_levels(str(label) for label in Bottleneck)
        self.sketches: Dict[Tuple[str, str], StreamingCDF] = {
            (metric, level): StreamingCDF(capacity=DEFAULT_SKETCH_CAPACITY)
            for metric in CDF_METRICS
            for level in AGGREGATION_LEVELS
        }

    # ---- ingestion -------------------------------------------------

    def observe(self, jobs: Sequence[JobRecord]) -> int:
        """Fold one batch of job records into the running statistics.

        The batch is evaluated through the vectorized model path
        (:func:`repro.core.population.batch_breakdowns`), so ingesting N
        jobs in B batches costs the same arithmetic as one batch of N.
        Returns the number of jobs ingested.
        """
        batch = list(jobs)
        if not batch:
            return 0
        arrays = FeatureArrays.from_workloads(job.features for job in batch)
        breakdown = batch_breakdowns(arrays, pai_default_hardware())
        cnodes = arrays.num_cnodes.astype(float)
        level_weights = {"job": np.ones(len(batch)), "cnode": cnodes}

        self.job_count += len(batch)
        self.cnode_total += float(cnodes.sum())
        for architecture in arrays.architectures_present():
            mask = arrays.mask_of(architecture)
            label = str(architecture)
            self.arch_jobs[label] = self.arch_jobs.get(label, 0) + int(
                mask.sum()
            )
            self.arch_cnodes[label] = self.arch_cnodes.get(label, 0.0) + float(
                cnodes[mask].sum()
            )

        fractions = breakdown.fractions()
        shares = breakdown.hardware_shares()
        step_times = breakdown.total_for(PAPER_MODEL_OPTIONS.overlap)
        metric_samples = dict(fractions)
        metric_samples["step_time"] = step_times
        metric_samples["num_cnodes"] = cnodes
        for level, weights in level_weights.items():
            for key in COMPONENT_KEYS:
                self.fraction_sums[level][key] += float(
                    np.dot(fractions[key], weights)
                )
            for key in HARDWARE_KEYS:
                self.hardware_sums[level][key] += float(
                    np.dot(shares[key], weights)
                )
            for metric in CDF_METRICS:
                self.sketches[(metric, level)].update_many(
                    metric_samples[metric],
                    None if level == "job" else weights,
                )

        codes = label_codes(breakdown)
        for level, weights in level_weights.items():
            sums = self.census_sums[level]
            for label, total in label_totals(codes, weights).items():
                sums[str(label)] += total
        return len(batch)

    # ---- merging ---------------------------------------------------

    def update_from(self, other: "ShardStats") -> None:
        """Fold another shard's statistics into this one, in place."""
        self.job_count += other.job_count
        self.cnode_total += other.cnode_total
        for label, count in other.arch_jobs.items():
            self.arch_jobs[label] = self.arch_jobs.get(label, 0) + count
        for label, cnodes in other.arch_cnodes.items():
            self.arch_cnodes[label] = (
                self.arch_cnodes.get(label, 0.0) + cnodes
            )
        for mine, theirs in (
            (self.fraction_sums, other.fraction_sums),
            (self.hardware_sums, other.hardware_sums),
            (self.census_sums, other.census_sums),
        ):
            for level in AGGREGATION_LEVELS:
                for key, value in theirs[level].items():
                    mine[level][key] += value
        for key, sketch in other.sketches.items():
            self.sketches[key] = self.sketches[key].merge(sketch)

    def copy(self) -> "ShardStats":
        """A deep, independent snapshot of this shard's statistics."""
        duplicate = ShardStats()
        duplicate.job_count = self.job_count
        duplicate.cnode_total = self.cnode_total
        duplicate.arch_jobs = dict(self.arch_jobs)
        duplicate.arch_cnodes = dict(self.arch_cnodes)
        duplicate.fraction_sums = {
            level: dict(sums) for level, sums in self.fraction_sums.items()
        }
        duplicate.hardware_sums = {
            level: dict(sums) for level, sums in self.hardware_sums.items()
        }
        duplicate.census_sums = {
            level: dict(sums) for level, sums in self.census_sums.items()
        }
        duplicate.sketches = {
            key: sketch.copy() for key, sketch in self.sketches.items()
        }
        return duplicate

    @classmethod
    def merged(cls, shards: Iterable["ShardStats"]) -> "ShardStats":
        """Combine shard statistics into one whole-population view."""
        shards = list(shards)
        if not shards:
            raise ValueError("cannot merge zero shards")
        combined = shards[0].copy()
        for shard in shards[1:]:
            combined.update_from(shard)
        return combined

    # ---- read side -------------------------------------------------

    def _total_weight(self, level: str) -> float:
        if level not in AGGREGATION_LEVELS:
            raise KeyError(f"unknown aggregation level: {level!r}")
        return float(self.job_count if level == "job" else self.cnode_total)

    def average_fractions(self, level: str = "job") -> Dict[str, float]:
        """Average component shares (one Fig. 7 column), incrementally."""
        total = self._total_weight(level)
        if total <= 0:
            raise ValueError("population is empty")
        return {
            key: self.fraction_sums[level][key] / total
            for key in COMPONENT_KEYS
        }

    def average_hardware_shares(self, level: str = "job") -> Dict[str, float]:
        """Average hardware-component shares (Fig. 8(a)), incrementally."""
        total = self._total_weight(level)
        if total <= 0:
            raise ValueError("population is empty")
        return {
            key: self.hardware_sums[level][key] / total
            for key in HARDWARE_KEYS
        }

    def census(self, level: str = "job") -> Dict[str, float]:
        """Bottleneck-label population shares, incrementally."""
        total = self._total_weight(level)
        if total <= 0:
            raise ValueError("population is empty")
        return {
            label: value / total
            for label, value in self.census_sums[level].items()
        }

    def cdf(self, metric: str, level: str = "job") -> EmpiricalCDF:
        """The sketched CDF of one metric at one aggregation level."""
        if metric not in CDF_METRICS:
            raise KeyError(f"unknown CDF metric: {metric!r}")
        if level not in AGGREGATION_LEVELS:
            raise KeyError(f"unknown aggregation level: {level!r}")
        return self.sketches[(metric, level)].to_cdf()

    def reference_payload(self) -> Dict[str, object]:
        """All aggregates as one JSON-native dict.

        The same shape as :func:`batch_reference`, so a drained service
        and the one-shot batch path can be compared leaf by leaf.
        """
        payload: Dict[str, object] = {
            "jobs": self.job_count,
            "cnodes": self.cnode_total,
            "architectures": {
                label: self.arch_jobs[label] for label in sorted(self.arch_jobs)
            },
            "fractions": {},
            "hardware_shares": {},
            "census": {},
            "quantiles": {},
        }
        for level in AGGREGATION_LEVELS:
            payload["fractions"][level] = self.average_fractions(level)
            payload["hardware_shares"][level] = self.average_hardware_shares(
                level
            )
            payload["census"][level] = self.census(level)
        for metric in CDF_METRICS:
            cdf = self.cdf(metric, "job")
            payload["quantiles"][metric] = {
                "p50": cdf.quantile(0.50),
                "p90": cdf.quantile(0.90),
                "p99": cdf.quantile(0.99),
            }
        return payload


def batch_reference(jobs: Sequence[JobRecord]) -> Dict[str, object]:
    """The one-shot batch-path aggregates over a materialized trace.

    Computed with exactly the primitives the ``report`` experiments use:
    :func:`~repro.core.population.batch_breakdowns` for shares and the
    census, and :meth:`EmpiricalCDF.from_samples` for distributions.
    The serve acceptance check is that a drained service's
    :meth:`ShardStats.reference_payload` matches this, leaf by leaf.
    """
    records = list(jobs)
    if not records:
        raise ValueError("population is empty")
    arrays = FeatureArrays.from_workloads(job.features for job in records)
    breakdown = batch_breakdowns(arrays, pai_default_hardware())
    cnodes = arrays.num_cnodes.astype(float)
    arch_jobs: Dict[str, int] = {}
    for architecture in arrays.architectures_present():
        arch_jobs[str(architecture)] = int(arrays.mask_of(architecture).sum())

    fractions = breakdown.fractions()
    step_times = breakdown.total_for(PAPER_MODEL_OPTIONS.overlap)
    metric_samples: Dict[str, np.ndarray] = dict(fractions)
    metric_samples["step_time"] = step_times
    metric_samples["num_cnodes"] = cnodes

    payload: Dict[str, object] = {
        "jobs": len(records),
        "cnodes": float(cnodes.sum()),
        "architectures": {
            label: arch_jobs[label] for label in sorted(arch_jobs)
        },
        "fractions": {},
        "hardware_shares": {},
        "census": {},
        "quantiles": {},
    }
    for level in AGGREGATION_LEVELS:
        cnode_level = level == "cnode"
        payload["fractions"][level] = breakdown.average_fractions(cnode_level)
        payload["hardware_shares"][level] = breakdown.average_hardware_shares(
            cnode_level
        )
        payload["census"][level] = {
            str(label): share
            for label, share in bottleneck_census(
                breakdown, cnode_level=cnode_level
            ).items()
        }
    for metric in CDF_METRICS:
        cdf = EmpiricalCDF.from_samples(metric_samples[metric])
        payload["quantiles"][metric] = {
            "p50": cdf.quantile(0.50),
            "p90": cdf.quantile(0.90),
            "p99": cdf.quantile(0.99),
        }
    return payload


def payload_leaves(
    payload: Dict[str, object], prefix: str = ""
) -> List[Tuple[str, object]]:
    """Flatten a nested payload into sorted (dotted-path, value) pairs.

    The comparison helper the equivalence tests and the CI smoke job use
    to diff a served payload against :func:`batch_reference`.
    """
    leaves: List[Tuple[str, object]] = []
    for key in sorted(payload):
        path = f"{prefix}.{key}" if prefix else str(key)
        value = payload[key]
        if isinstance(value, dict):
            leaves.extend(payload_leaves(value, path))
        else:
            leaves.append((path, value))
    return leaves
