"""Per-job bottleneck classification, kept as the census's oracle.

:func:`repro.core.classify.label_codes` labels a whole population at
once.  :func:`classify` labels one job through the per-job model
(:func:`~repro.core.timemodel.estimate_breakdown`), taking the first
maximal share in the breakdown's component order, and the census tests
require the two to agree job for job.
"""

from dataclasses import dataclass

from repro.core.classify import DOMINANCE_THRESHOLD, Bottleneck
from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
from repro.core.timemodel import PAPER_MODEL_OPTIONS, estimate_breakdown

_COMPONENT_TO_LABEL = {
    "weight": Bottleneck.COMMUNICATION,
    "compute_bound": Bottleneck.COMPUTE,
    "memory_bound": Bottleneck.MEMORY,
    "data_io": Bottleneck.INPUT_IO,
}


@dataclass(frozen=True)
class ClassifiedJob:
    """A job with its dominant component and label."""

    features: object
    label: Bottleneck
    dominant_component: str
    dominant_share: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.dominant_share <= 1.0:
            raise ValueError("dominant_share must be in [0, 1]")


def classify(
    features,
    hardware,
    efficiency=PAPER_DEFAULT_EFFICIENCY,
    options=PAPER_MODEL_OPTIONS,
    threshold=DOMINANCE_THRESHOLD,
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
