"""Architecture projection: PS/Worker jobs onto AllReduce (Sec. III-C1).

The mapping rules follow the paper exactly:

* **AllReduce-Local** -- a local job can use at most 8 GPUs, so a
  PS/Worker job with more than 8 cNodes is reduced to 8; smaller jobs
  keep their cNode count.  Jobs whose model does not fit in a single
  GPU's memory cannot be projected at all (AllReduce frameworks only
  support the weight-replica mode).
* **AllReduce-Cluster** -- the original cNode count is retained.

The projection keeps the fundamental per-step requirements (S_d, FLOPs,
S_mem, S_w) and changes only the deployment, so the weight path switches
from Ethernet & PCIe to NVLink (local) or Ethernet & NVLink (cluster) and
input I/O picks up PCIe contention in the local case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .architectures import Architecture
from .efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from .features import WorkloadFeatures
from .hardware import HardwareConfig
from .throughput import step_speedup, throughput_speedup
from .timemodel import PAPER_MODEL_OPTIONS, ModelOptions

__all__ = [
    "ALLREDUCE_LOCAL_MAX_CNODES",
    "ProjectionResult",
    "project_to_allreduce_local",
    "project_to_allreduce_cluster",
    "projection_speedups",
]

#: An AllReduce-Local job can have at most 8 cNodes (one 8-GPU server).
ALLREDUCE_LOCAL_MAX_CNODES = 8


def _fits_in_gpu_memory(
    features: WorkloadFeatures, hardware: HardwareConfig
) -> bool:
    """Whether the full replicated model fits a single GPU's memory."""
    return features.weight_bytes <= hardware.gpu.memory_capacity


def project_to_allreduce_local(
    features: WorkloadFeatures,
    hardware: Optional[HardwareConfig] = None,
) -> WorkloadFeatures:
    """Map a PS/Worker job onto AllReduce-Local.

    Args:
        features: The original PS/Worker deployment.
        hardware: When given, the GPU memory capacity is enforced; jobs
            whose model cannot be replicated on one GPU raise
            ``ValueError`` (the paper restricts the projection to "small
            to medium scale models that can fit into the GPU memory").

    Returns:
        The same workload deployed as AllReduce-Local with at most
        8 cNodes.
    """
    if features.architecture is not Architecture.PS_WORKER:
        raise ValueError(
            f"projection is defined for PS/Worker jobs, got {features.architecture}"
        )
    if hardware is not None and not _fits_in_gpu_memory(features, hardware):
        raise ValueError(
            f"model of {features.weight_bytes:.3g} bytes does not fit in "
            f"GPU memory ({hardware.gpu.memory_capacity:.3g} bytes)"
        )
    num_cnodes = min(features.num_cnodes, ALLREDUCE_LOCAL_MAX_CNODES)
    return features.with_architecture(
        Architecture.ALLREDUCE_LOCAL, num_cnodes=num_cnodes
    )


def project_to_allreduce_cluster(
    features: WorkloadFeatures,
    hardware: Optional[HardwareConfig] = None,
) -> WorkloadFeatures:
    """Map a PS/Worker job onto AllReduce-Cluster (cNode count retained)."""
    if features.architecture is not Architecture.PS_WORKER:
        raise ValueError(
            f"projection is defined for PS/Worker jobs, got {features.architecture}"
        )
    if hardware is not None and not _fits_in_gpu_memory(features, hardware):
        raise ValueError(
            f"model of {features.weight_bytes:.3g} bytes does not fit in "
            f"GPU memory ({hardware.gpu.memory_capacity:.3g} bytes)"
        )
    return features.with_architecture(Architecture.ALLREDUCE_CLUSTER)


@dataclass(frozen=True)
class ProjectionResult:
    """Speedups of one PS/Worker job under an AllReduce projection."""

    original: WorkloadFeatures
    projected: WorkloadFeatures
    single_cnode_speedup: float
    throughput_speedup: float

    @property
    def sped_up(self) -> bool:
        """Whether the projection improves overall job throughput."""
        return self.throughput_speedup > 1.0


def projection_speedups(
    features: WorkloadFeatures,
    target: Architecture,
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> ProjectionResult:
    """Project one PS/Worker job and compute both Fig. 9 speedups."""
    if target is Architecture.ALLREDUCE_LOCAL:
        projected = project_to_allreduce_local(features)
    elif target is Architecture.ALLREDUCE_CLUSTER:
        projected = project_to_allreduce_cluster(features)
    else:
        raise ValueError(f"unsupported projection target: {target}")
    return ProjectionResult(
        original=features,
        projected=projected,
        single_cnode_speedup=step_speedup(
            features, projected, hardware, efficiency, options
        ),
        throughput_speedup=throughput_speedup(
            features, projected, hardware, efficiency, options
        ),
    )
