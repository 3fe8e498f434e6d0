"""Shared inputs for the experiment modules.

Trace-based experiments (Figs. 5-11, 15, 16) consume the default
calibrated synthetic trace; case-study experiments (Tables IV-VI,
Figs. 12-13) consume the six model builders on the V100 testbed.  Both
are cached so running the full experiment suite generates them once.

The trace cache is keyed on the **full generator configuration** (the
:class:`repro.trace.generator.TraceConfig` dataclass), not just the job
count: any calibration, seed or marginal-distribution change produces a
different key, so a stale trace can never be served.  The caches of an
external trace (:data:`TRACE_PATH_ENV_VAR`) -- its records, its opened
columnar store and its feature columns -- key on the content digest
that :func:`trace_source_identity` reports, probed fresh on every call:
a rewrite is seen at once, and a result-cache fingerprint describes
the very data served.  Tests that mutate the environment can reset
everything through :func:`clear_caches`.
"""

from __future__ import annotations

import functools
import hashlib
import os
from collections import OrderedDict
from typing import Optional, Tuple

from ..core.architectures import Architecture
from ..core.hardware import HardwareConfig, pai_default_hardware, testbed_v100_hardware
from ..core.population import FeatureArrays
from ..trace.columnar import ColumnarTrace, is_columnar_store
from ..trace.generator import TraceConfig, generate_trace
from ..trace.schema import JobRecord, features_of_type
from ..trace.serialization import load_trace

__all__ = [
    "DEFAULT_TRACE_JOBS",
    "DEFAULT_TRACE_SEED",
    "TRACE_JOBS_ENV_VAR",
    "TRACE_PATH_ENV_VAR",
    "default_trace_config",
    "default_trace",
    "default_hardware",
    "testbed_hardware",
    "external_trace_path",
    "trace_source_identity",
    "trace_feature_arrays",
    "clear_caches",
]

#: Trace size for the experiment suite: large enough for stable tail
#: statistics, small enough to generate in about 0.3-0.45 s on a 2-vCPU
#: host.
DEFAULT_TRACE_JOBS = 20000

#: Seed of the calibrated default trace.
DEFAULT_TRACE_SEED = 20190501

#: Environment override for the suite's trace size (used by the quick
#: benchmark mode and CI smoke runs).  The value participates in the
#: trace config, and therefore in result-cache fingerprints.
TRACE_JOBS_ENV_VAR = "PAI_REPRO_TRACE_JOBS"

#: Environment override pointing the whole suite at an on-disk trace
#: instead of the synthetic generator: either a JSONL file or a
#: columnar store directory (:mod:`repro.trace.columnar`).  Columnar
#: stores feed the vectorized experiments straight from memory-mapped
#: columns, so Figs. 7-11, 15 and 16 and the census run against
#: million-job populations without materializing per-job records.  The
#: trace's content digest participates in result-cache fingerprints.
TRACE_PATH_ENV_VAR = "PAI_REPRO_TRACE_PATH"


def external_trace_path() -> Optional[str]:
    """The :data:`TRACE_PATH_ENV_VAR` override, if set and non-empty."""
    return os.environ.get(TRACE_PATH_ENV_VAR) or None


@functools.lru_cache(maxsize=4)
def _jsonl_digest(path: str, size: int, mtime_ns: int) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _source_digest(path: str) -> str:
    """Content digest of the trace at ``path``, probed fresh each call.

    A columnar store's is :meth:`ColumnarTrace.digest`, read through
    :meth:`ColumnarTrace.open`; a JSONL file's is the SHA-256 of its
    bytes, re-hashed whenever its size or mtime changes.
    """
    if is_columnar_store(path):
        return ColumnarTrace.open(path).digest()
    stat = os.stat(path)
    return _jsonl_digest(path, stat.st_size, stat.st_mtime_ns)


def trace_source_identity() -> Optional[dict]:
    """Content identity of the external trace override, or ``None``.

    Result-cache fingerprints include this, so pointing
    :data:`TRACE_PATH_ENV_VAR` at a different trace (or rewriting the
    same path) can never serve a stale cached result.  The record,
    store and column caches below key on the same digest, so a
    fingerprint and the data it describes come from one value.
    """
    path = external_trace_path()
    if path is None:
        return None
    return {
        "format": "columnar" if is_columnar_store(path) else "jsonl",
        "digest": _source_digest(path),
    }


@functools.lru_cache(maxsize=2)
def _external_store(path: str, digest: str) -> ColumnarTrace:
    del digest  # cache key only: re-open when the contents change
    return ColumnarTrace.open(path)


@functools.lru_cache(maxsize=2)
def _cached_external_trace(path: str, digest: str) -> tuple:
    if is_columnar_store(path):
        # Through the cached store's columns, so its feature arrays
        # reuse the shard reads instead of hashing every shard again.
        return tuple(
            JobRecord(v.job_id, v.features.materialize(), v.submit_day, v.user_group)
            for v in _external_store(path, digest).iter_views()
        )
    return tuple(load_trace(path))


def default_trace_config(num_jobs: Optional[int] = None) -> TraceConfig:
    """The suite's trace-generator configuration.

    ``num_jobs`` defaults to :data:`DEFAULT_TRACE_JOBS`, overridable via
    the :data:`TRACE_JOBS_ENV_VAR` environment variable.
    """
    if num_jobs is None:
        num_jobs = int(os.environ.get(TRACE_JOBS_ENV_VAR, DEFAULT_TRACE_JOBS))
    return TraceConfig(num_jobs=num_jobs, seed=DEFAULT_TRACE_SEED)


@functools.lru_cache(maxsize=4)
def _cached_trace(config: TraceConfig) -> tuple:
    return tuple(generate_trace(config=config))


def default_trace(
    num_jobs: Optional[int] = None, config: Optional[TraceConfig] = None
) -> tuple:
    """The suite's trace (cached, deterministic).

    By default this is the calibrated synthetic trace; with
    :data:`TRACE_PATH_ENV_VAR` set (and no explicit ``num_jobs`` or
    ``config``) it is the on-disk trace at that path instead --
    materialized as records here, while the vectorized experiments
    bypass this entirely via :func:`trace_feature_arrays`.

    The synthetic cache key is the complete :class:`TraceConfig` -- two
    calls with the same job count but different seeds or calibration
    parameters are distinct entries, never a silently shared stale
    trace.
    """
    if num_jobs is None and config is None:
        path = external_trace_path()
        if path is not None:
            return _cached_external_trace(path, _source_digest(path))
    if config is None:
        config = default_trace_config(num_jobs)
    elif num_jobs is not None and config.num_jobs != num_jobs:
        raise ValueError(
            "pass either num_jobs or an explicit TraceConfig, not a "
            "conflicting combination"
        )
    return _cached_trace(config)


def default_hardware() -> HardwareConfig:
    """Table I settings."""
    return pai_default_hardware()


def testbed_hardware() -> HardwareConfig:
    """The Sec. IV V100 testbed."""
    return testbed_v100_hardware()


#: Extraction memo for record tuples: (id(jobs), architecture) ->
#: (jobs, arrays).  The tuple is kept alive in the value, so a recycled
#: ``id`` can never alias a different trace.
_FEATURE_ARRAYS: "OrderedDict[Tuple[int, Optional[Architecture]], Tuple[tuple, FeatureArrays]]" = (
    OrderedDict()
)
_FEATURE_ARRAYS_MAX = 16


@functools.lru_cache(maxsize=_FEATURE_ARRAYS_MAX)
def _external_feature_arrays(
    path: str, digest: str, architecture: Optional[Architecture]
) -> FeatureArrays:
    return _external_store(path, digest).feature_arrays(architecture)


def trace_feature_arrays(
    jobs: tuple = None, architecture: Architecture = None
) -> FeatureArrays:
    """Columnar features of (a slice of) a trace, extracted once.

    Population columns feed the vectorized batch-evaluation path
    (:mod:`repro.core.population`); experiments sharing a population
    (Figs. 7-11, 15 and 16, the census, observations) share one
    extraction.

    When :data:`TRACE_PATH_ENV_VAR` points at a columnar store and no
    explicit ``jobs`` are passed, the columns come straight off the
    memory-mapped shards (:meth:`ColumnarTrace.feature_arrays`) --
    no ``JobRecord`` objects exist at any point, which is what lets
    the figure experiments run against 1M+ job populations.
    """
    if jobs is None:
        path = external_trace_path()
        if path is not None and is_columnar_store(path):
            return _external_feature_arrays(
                path, _source_digest(path), architecture
            )
        jobs = default_trace()
    key = (id(jobs), architecture)
    hit = _FEATURE_ARRAYS.get(key)
    if hit is not None and hit[0] is jobs:
        _FEATURE_ARRAYS.move_to_end(key)  # repro: ignore[fork-safety] per-process memo
        return hit[1]
    arrays = FeatureArrays.from_workloads(
        [job.features for job in jobs]
        if architecture is None
        else features_of_type(jobs, architecture)
    )
    _FEATURE_ARRAYS[key] = (jobs, arrays)  # repro: ignore[fork-safety] per-process memo
    while len(_FEATURE_ARRAYS) > _FEATURE_ARRAYS_MAX:
        _FEATURE_ARRAYS.popitem(last=False)  # repro: ignore[fork-safety] per-process memo
    return arrays


def clear_caches() -> None:
    """Drop every cached trace and feature extraction (test hook)."""
    _cached_trace.cache_clear()
    _cached_external_trace.cache_clear()
    _external_store.cache_clear()
    _external_feature_arrays.cache_clear()
    _jsonl_digest.cache_clear()
    _FEATURE_ARRAYS.clear()  # repro: ignore[fork-safety] test hook
