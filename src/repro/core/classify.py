"""Bottleneck classification: label each job by where its time goes.

The paper's breakdowns implicitly classify jobs (communication-bound
PS/Worker jobs, I/O-bound 1w1g jobs, ...); this module makes the label
explicit and auditable.  A job is *X-bound* when component X holds at
least :data:`DOMINANCE_THRESHOLD` of the step time; otherwise it is
*balanced*.  The census over a population is the cluster-health view a
platform team tracks release over release.

:func:`label_codes` labels a whole :class:`PopulationBreakdown` at once
and is the one labelling behind the census experiment and
``repro.serve``.  It takes the first maximal share in
:data:`~repro.core.population.COMPONENT_KEYS` order as the dominant
component.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

import numpy as np

from .population import COMPONENT_KEYS, PopulationBreakdown

__all__ = [
    "Bottleneck",
    "CENSUS_LABELS",
    "DOMINANCE_THRESHOLD",
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


def label_codes(breakdown: PopulationBreakdown) -> np.ndarray:
    """Every job's label at once, as an index into :data:`CENSUS_LABELS`.

    Argmax over the component shares stacked in ``COMPONENT_KEYS``
    order picks the first maximal component, and a dominant share under
    :data:`DOMINANCE_THRESHOLD` makes the job balanced.
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
