"""Inference-workload characterization (the paper's stated future work,
Sec. VIII), built with the same Sec. II-B methodology."""

from .features import InferenceFeatures, inference_features_for
from .model import (
    InferenceBreakdown,
    batch_sweep,
    estimate_latency,
    max_batch_within_slo,
)

__all__ = [
    "InferenceBreakdown",
    "InferenceFeatures",
    "batch_sweep",
    "estimate_latency",
    "inference_features_for",
    "max_batch_within_slo",
]
