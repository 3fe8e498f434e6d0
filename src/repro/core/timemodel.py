"""The analytical execution-time model of Sec. II-B.

One training step is decomposed into three parts::

    T_total = T_d + T_c + T_w                      (non-overlap composition)
    T_total = max{T_d, T_c, T_w}                   (ideal-overlap, Sec. V-B)

    T_d = S_d / (B_d * eff)                        input data I/O
    T_w = sum over media m of S_w / (B_m * eff_m)  weight/gradient traffic
    T_c = #FLOPs / (peak_FLOPs * eff)
        + S_mem_access / (B_mem * eff)             computation

The media on the weight path come from the architecture (Table II); the
serialized multi-hop sum is what makes Eq. 3's exact 21x speedup for
weight-bound workloads:  (S_w/(25Gb*70%) + S_w/(10GB*70%)) /
(S_w/(50GB*70%)) = 21.

Two refinements beyond the bare equations are controlled by
:class:`ModelOptions`:

* **PCIe input contention** -- in local multi-GPU architectures all
  replicas load input through one host PCIe complex, so per-cNode input
  bandwidth is divided by the number of co-located cNodes (this produces
  the input-I/O slow-down observed when projecting PS/Worker jobs to
  AllReduce-Local in Sec. III-C1).
* **Collective traffic shaping** -- optionally apply the ring-AllReduce
  ``2(n-1)/n`` traffic factor and PEARL's partitioned-gather parallelism
  instead of the paper's flat ``S_w/B_w``.  Both default to the paper's
  simple model; the ablations in ``tests/core/test_timemodel.py`` flip
  them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping

from .architectures import MEDIA_GPU_FLOPS, MEDIA_GPU_MEMORY, Architecture
from .efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from .features import WorkloadFeatures
from .hardware import HardwareConfig

__all__ = [
    "OverlapMode",
    "ModelOptions",
    "PAPER_MODEL_OPTIONS",
    "TimeBreakdown",
    "estimate_breakdown",
    "estimate_step_time",
    "weight_traffic_times",
    "ring_allreduce_factor",
]


class OverlapMode(enum.Enum):
    """How the three components compose into a step time (Sec. V-B)."""

    NONE = "non-overlap"
    IDEAL = "ideal-overlap"


@dataclass(frozen=True)
class ModelOptions:
    """Switches for the model refinements described in the module docs."""

    overlap: OverlapMode = OverlapMode.NONE
    input_pcie_contention: bool = True
    allreduce_ring_factor: bool = False
    pearl_partition_parallelism: bool = True


#: The assumptions used for the collective analysis of Sec. III.
PAPER_MODEL_OPTIONS = ModelOptions()


def ring_allreduce_factor(num_cnodes: int) -> float:
    """Per-node traffic of a ring AllReduce relative to the naive 2*S.

    A ring AllReduce of an S-byte buffer moves ``2*(n-1)/n * S`` bytes
    per node; the naive pull+push volume is ``2*S``, so the relative
    factor is ``(n-1)/n``.
    """
    if num_cnodes < 1:
        raise ValueError("num_cnodes must be at least 1")
    if num_cnodes == 1:
        return 0.0
    return (num_cnodes - 1) / num_cnodes


@dataclass(frozen=True)
class TimeBreakdown:
    """Execution-time composition of one training step on one cNode.

    ``weight_comm`` is keyed by medium name so the breakdown can be
    re-aggregated per hardware component (the Fig. 8(a) view) as well as
    per logical part (the Fig. 7 / Fig. 8(b-d) view).
    """

    data_io: float
    compute_flops: float
    compute_memory: float
    weight_comm: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("data_io", "compute_flops", "compute_memory"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for medium, seconds in self.weight_comm.items():
            if seconds < 0:
                raise ValueError(f"weight_comm[{medium!r}] must be non-negative")

    @property
    def computation(self) -> float:
        """T_c: compute-bound plus memory-bound operation time."""
        return self.compute_flops + self.compute_memory

    @property
    def weight_total(self) -> float:
        """T_w: weight/gradient traffic time summed over path media."""
        return sum(self.weight_comm.values())

    @property
    def total(self) -> float:
        """T_total under the paper's non-overlap composition."""
        return self.data_io + self.computation + self.weight_total

    @property
    def total_ideal_overlap(self) -> float:
        """T_total when data, compute and weight traffic fully overlap."""
        return max(self.data_io, self.computation, self.weight_total)

    def total_for(self, overlap: OverlapMode) -> float:
        """Step time under either composition mode."""
        if overlap is OverlapMode.NONE:
            return self.total
        return self.total_ideal_overlap

    def fractions(self) -> Dict[str, float]:
        """Component shares of the non-overlap total (Fig. 7 rows).

        Returns a dict with keys ``data_io``, ``weight``,
        ``compute_bound`` and ``memory_bound`` summing to 1 (or all-zero
        for a degenerate zero-time breakdown).
        """
        total = self.total
        if total == 0:
            return {
                "data_io": 0.0,
                "weight": 0.0,
                "compute_bound": 0.0,
                "memory_bound": 0.0,
            }
        return {
            "data_io": self.data_io / total,
            "weight": self.weight_total / total,
            "compute_bound": self.compute_flops / total,
            "memory_bound": self.compute_memory / total,
        }

    def hardware_shares(self) -> Dict[str, float]:
        """Time shares attributed to hardware components (Fig. 8(a)).

        Input data I/O is PCIe traffic; weight traffic is attributed to
        each medium on its path; compute-bound time to ``GPU_FLOPs`` and
        memory-bound time to ``GPU_memory``.
        """
        total = self.total
        shares: Dict[str, float] = {
            MEDIA_GPU_FLOPS: self.compute_flops,
            MEDIA_GPU_MEMORY: self.compute_memory,
            "PCIe": self.data_io + self.weight_comm.get("PCIe", 0.0),
            "Ethernet": self.weight_comm.get("Ethernet", 0.0),
            "NVLink": self.weight_comm.get("NVLink", 0.0),
        }
        if total == 0:
            return {name: 0.0 for name in shares}
        return {name: seconds / total for name, seconds in shares.items()}

    def scaled(self, factor: float) -> "TimeBreakdown":
        """Uniformly scale every component (used by simulator overheads)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return TimeBreakdown(
            data_io=self.data_io * factor,
            compute_flops=self.compute_flops * factor,
            compute_memory=self.compute_memory * factor,
            weight_comm={m: s * factor for m, s in self.weight_comm.items()},
        )


def _effective_weight_volume(
    features: WorkloadFeatures, options: ModelOptions
) -> float:
    """Per-cNode traffic volume after collective traffic shaping."""
    architecture = features.architecture
    volume = features.weight_traffic_bytes
    if architecture is Architecture.PEARL and options.pearl_partition_parallelism:
        # Dense weights ride a (ring) AllReduce; partitioned embeddings
        # are gathered/scattered in parallel across the local GPUs, so
        # each GPU handles only its 1/n share of the sparse volume.
        local = max(features.local_cnodes_per_server, 1)
        dense = features.dense_traffic_bytes
        if options.allreduce_ring_factor:
            dense *= ring_allreduce_factor(features.num_cnodes)
        sparse = features.embedding_traffic_bytes / local
        return dense + sparse
    if (
        architecture
        in (Architecture.ALLREDUCE_LOCAL, Architecture.ALLREDUCE_CLUSTER)
        and options.allreduce_ring_factor
    ):
        return volume * ring_allreduce_factor(features.num_cnodes)
    return volume


def weight_traffic_times(
    features: WorkloadFeatures,
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> Dict[str, float]:
    """T_w split per medium on the architecture's weight path."""
    volume = _effective_weight_volume(features, options)
    times: Dict[str, float] = {}
    for medium in features.architecture.weight_media:
        bandwidth = hardware.bandwidth_of(medium)
        times[medium] = volume / (bandwidth * efficiency.for_medium(medium))
    return times


def estimate_breakdown(
    features: WorkloadFeatures,
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> TimeBreakdown:
    """Apply the Sec. II-B analytical model to one workload.

    Returns the per-cNode, per-step :class:`TimeBreakdown`.
    """
    gpu = hardware.gpu
    compute_flops = features.flop_count / (gpu.peak_flops * efficiency.compute)
    compute_memory = features.memory_access_bytes / (
        gpu.memory_bandwidth * efficiency.memory
    )

    contention = 1
    if options.input_pcie_contention and features.architecture.input_contends_for_pcie:
        contention = features.local_cnodes_per_server
    data_io = (features.input_bytes * contention) / (
        hardware.pcie.bandwidth * efficiency.pcie
    )

    return TimeBreakdown(
        data_io=data_io,
        compute_flops=compute_flops,
        compute_memory=compute_memory,
        weight_comm=weight_traffic_times(features, hardware, efficiency, options),
    )


def estimate_step_time(
    features: WorkloadFeatures,
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> float:
    """T_total for one step under the configured overlap mode."""
    breakdown = estimate_breakdown(features, hardware, efficiency, options)
    return breakdown.total_for(options.overlap)
