"""Bottleneck classification: label each job by where its time goes.

The paper's breakdowns implicitly classify jobs (communication-bound
PS/Worker jobs, I/O-bound 1w1g jobs, ...); this module makes the label
explicit and auditable.  A job is *X-bound* when component X holds at
least :data:`DOMINANCE_THRESHOLD` of the step time; otherwise it is
*balanced*.  The census over a population is the cluster-health view a
platform team tracks release over release.

:func:`classify` labels one job through the per-job model;
:func:`label_codes` labels a whole :class:`PopulationBreakdown` at once
and is the one labelling behind the census experiment and
``repro.serve``.  Both take the first maximal share in
:data:`~repro.core.population.COMPONENT_KEYS` order as the dominant
component, so they agree job for job.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from .features import WorkloadFeatures
from .hardware import HardwareConfig
from .population import COMPONENT_KEYS, PopulationBreakdown
from .timemodel import PAPER_MODEL_OPTIONS, ModelOptions, estimate_breakdown

__all__ = [
    "Bottleneck",
    "CENSUS_LABELS",
    "DOMINANCE_THRESHOLD",
    "ClassifiedJob",
    "classify",
    "label_codes",
    "label_totals",
    "bottleneck_census",
]

#: Minimum share of the step a component needs to earn the job its label.
DOMINANCE_THRESHOLD = 0.5


class Bottleneck(enum.Enum):
    """What dominates a job's training step."""

    COMMUNICATION = "communication-bound"
    COMPUTE = "compute-bound"
    MEMORY = "memory-bound"
    INPUT_IO = "io-bound"
    BALANCED = "balanced"

    def __str__(self) -> str:
        return self.value


_COMPONENT_TO_LABEL = {
    "weight": Bottleneck.COMMUNICATION,
    "compute_bound": Bottleneck.COMPUTE,
    "memory_bound": Bottleneck.MEMORY,
    "data_io": Bottleneck.INPUT_IO,
}

#: The labels :func:`label_codes` indexes: one per ``COMPONENT_KEYS``
#: entry, in that order, then :attr:`Bottleneck.BALANCED`.
CENSUS_LABELS: Tuple[Bottleneck, ...] = tuple(
    _COMPONENT_TO_LABEL[key] for key in COMPONENT_KEYS
) + (Bottleneck.BALANCED,)


@dataclass(frozen=True)
class ClassifiedJob:
    """A job with its dominant component and label."""

    features: WorkloadFeatures
    label: Bottleneck
    dominant_component: str
    dominant_share: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.dominant_share <= 1.0:
            raise ValueError("dominant_share must be in [0, 1]")


def classify(
    features: WorkloadFeatures,
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
    threshold: float = DOMINANCE_THRESHOLD,
) -> ClassifiedJob:
    """Label one job by its dominant execution-time component."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    fractions = estimate_breakdown(
        features, hardware, efficiency, options
    ).fractions()
    dominant = max(fractions, key=fractions.get)
    share = fractions[dominant]
    label = (
        _COMPONENT_TO_LABEL[dominant] if share >= threshold else Bottleneck.BALANCED
    )
    return ClassifiedJob(
        features=features,
        label=label,
        dominant_component=dominant,
        dominant_share=share,
    )


def label_codes(breakdown: PopulationBreakdown) -> np.ndarray:
    """Every job's label at once, as an index into :data:`CENSUS_LABELS`.

    The columnar :func:`classify`: argmax over the component shares
    stacked in ``COMPONENT_KEYS`` order picks the first maximal
    component, as ``max`` over the per-job ``fractions()`` dict does,
    and a dominant share under :data:`DOMINANCE_THRESHOLD` makes the
    job balanced.
    """
    fractions = breakdown.fractions()
    stacked = np.stack([fractions[key] for key in COMPONENT_KEYS])
    dominant = np.argmax(stacked, axis=0)
    share = np.take_along_axis(stacked, dominant[np.newaxis, :], axis=0)[0]
    return np.where(share >= DOMINANCE_THRESHOLD, dominant, len(COMPONENT_KEYS))


def label_totals(
    codes: np.ndarray, weights: Optional[np.ndarray] = None
) -> Dict[Bottleneck, float]:
    """Summed weight of each label (job counts when ``weights`` is None).

    ``codes`` come from :func:`label_codes`; the result is keyed in
    :class:`Bottleneck` order.
    """
    totals = np.bincount(codes, weights=weights, minlength=len(CENSUS_LABELS))
    by_label = dict(zip(CENSUS_LABELS, totals))
    return {label: float(by_label[label]) for label in Bottleneck}


def bottleneck_census(
    breakdown: PopulationBreakdown, cnode_level: bool = False
) -> Dict[Bottleneck, float]:
    """Population share of each label (optionally cNode-weighted)."""
    if len(breakdown) == 0:
        raise ValueError("population is empty")
    weights = breakdown.cnode_weights() if cnode_level else None
    totals = label_totals(label_codes(breakdown), weights)
    population = sum(totals.values())
    return {label: total / population for label, total in totals.items()}
