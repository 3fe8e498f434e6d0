"""Optimization techniques of Sec. IV-D: mixed precision and XLA fusion."""

from .base import OptimizationPass, apply_passes
from .mixed_precision import (
    NET_MATMUL_SPEEDUP,
    TENSOR_CORE_PEAK_RATIO,
    TENSOR_CORE_UTILIZATION,
    mixed_precision_pass,
)
from .xla import (
    CACHE_RESIDENCY_UPLIFT,
    MAX_FUSED_EFFICIENCY,
    STRUCTURAL_FUSION_SAVING,
    fused_memory_efficiency,
    fusion_groups,
    xla_fusion_pass,
)

__all__ = [
    "CACHE_RESIDENCY_UPLIFT",
    "MAX_FUSED_EFFICIENCY",
    "NET_MATMUL_SPEEDUP",
    "OptimizationPass",
    "STRUCTURAL_FUSION_SAVING",
    "TENSOR_CORE_PEAK_RATIO",
    "TENSOR_CORE_UTILIZATION",
    "apply_passes",
    "fused_memory_efficiency",
    "fusion_groups",
    "mixed_precision_pass",
    "xla_fusion_pass",
]
