"""Analytical serving model: latency, throughput and batching.

Applies the Sec. II-B decomposition to inference requests::

    T_request = S_in / (B_pcie * eff)
              + FLOPs / (peak * eff) + S_mem / (B_mem * eff)
              + S_out / (B_pcie * eff)

and answers the serving questions: per-request latency at a batch size,
saturated throughput, and the largest batch that still meets a latency
SLO (the classic latency/throughput trade-off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from ..core.hardware import HardwareConfig
from ..core.units import GB
from .features import InferenceFeatures

__all__ = [
    "InferenceBreakdown",
    "estimate_latency",
    "max_batch_within_slo",
    "batch_sweep",
]


@dataclass(frozen=True)
class InferenceBreakdown:
    """Latency composition of one forward execution."""

    input_io: float
    compute_flops: float
    compute_memory: float
    output_io: float

    @property
    def total(self) -> float:
        return (
            self.input_io
            + self.compute_flops
            + self.compute_memory
            + self.output_io
        )

    def fractions(self) -> dict:
        total = self.total
        if total == 0:
            return {
                "input_io": 0.0,
                "compute_bound": 0.0,
                "memory_bound": 0.0,
                "output_io": 0.0,
            }
        return {
            "input_io": self.input_io / total,
            "compute_bound": self.compute_flops / total,
            "memory_bound": self.compute_memory / total,
            "output_io": self.output_io / total,
        }

    @property
    def bottleneck(self) -> str:
        fractions = self.fractions()
        return max(fractions, key=fractions.get)


def estimate_latency(
    features: InferenceFeatures,
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
) -> InferenceBreakdown:
    """Per-execution latency breakdown of a serving workload."""
    if features.resident_weight_bytes > hardware.gpu.memory_capacity:
        raise ValueError(
            f"model ({features.resident_weight_bytes / GB:.1f} GB) does "
            f"not fit the serving GPU "
            f"({hardware.gpu.memory_capacity / GB:.1f} GB)"
        )
    pcie = hardware.pcie.bandwidth * efficiency.pcie
    return InferenceBreakdown(
        input_io=features.input_bytes / pcie,
        compute_flops=features.flop_count
        / (hardware.gpu.peak_flops * efficiency.compute),
        compute_memory=features.memory_access_bytes
        / (hardware.gpu.memory_bandwidth * efficiency.memory),
        output_io=features.output_bytes / pcie,
    )


def max_batch_within_slo(
    features: InferenceFeatures,
    hardware: HardwareConfig,
    latency_slo: float,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    max_batch: int = 1 << 14,
) -> Optional[int]:
    """Largest power-of-two batch whose latency stays within the SLO.

    Returns None when even batch 1 misses the SLO.
    """
    if latency_slo <= 0:
        raise ValueError("latency_slo must be positive")
    best = None
    batch = 1
    while batch <= max_batch:
        candidate = features.with_batch_size(batch)
        latency = estimate_latency(candidate, hardware, efficiency).total
        if latency > latency_slo:
            break
        best = batch
        batch *= 2
    return best


def batch_sweep(
    features: InferenceFeatures,
    hardware: HardwareConfig,
    batches: Optional[List[int]] = None,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
) -> List[dict]:
    """Latency/throughput rows across batch sizes (one report table)."""
    if batches is None:
        batches = [1, 2, 4, 8, 16, 32, 64, 128]
    rows = []
    for batch in batches:
        candidate = features.with_batch_size(batch)
        breakdown = estimate_latency(candidate, hardware, efficiency)
        rows.append(
            {
                "batch": batch,
                "latency_s": breakdown.total,
                "throughput_rps": batch / breakdown.total,
                "bottleneck": breakdown.bottleneck,
            }
        )
    return rows
