"""The workload feature schema (Fig. 4, "Workload Feature Extraction").

A :class:`WorkloadFeatures` record captures everything the analytical
model needs about one training job, per cNode and per training step:

* input data volume ``S_d`` (the "Memory Copy (PCIe)" column of Table V),
* compute-bound FLOP count (``#FLOPs``),
* memory-bound access volume ``S_mem_access``,
* weight/gradient traffic volume ``S_w`` (the "Network Traffic" column),
* model weight sizes at rest (dense vs embedding, Table IV), and
* the deployment: architecture and cNode count.

These records are produced either by the profiling pipeline
(:mod:`repro.profiling.extraction`), by the model-graph substrate
(:mod:`repro.graphs.features_from_graph`) or by the synthetic trace
generator (:mod:`repro.trace.generator`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import inf
from typing import Tuple

from .architectures import Architecture

__all__ = ["FEATURE_FIELDS", "WorkloadFeatures"]

#: The schema's field names, in declaration order.  This is the shared
#: contract between the eager record below and the lazy columnar row
#: view (:class:`repro.core.population.FeatureView`): both expose these
#: attributes, column extraction reads them, and
#: ``FeatureView.materialize`` rebuilds a record from them.
FEATURE_FIELDS: Tuple[str, ...] = (
    "name",
    "architecture",
    "num_cnodes",
    "batch_size",
    "flop_count",
    "memory_access_bytes",
    "input_bytes",
    "weight_traffic_bytes",
    "dense_weight_bytes",
    "embedding_weight_bytes",
    "embedding_traffic_bytes",
)


@dataclass(frozen=True)
class WorkloadFeatures:
    """Per-cNode, per-step resource requirements of one training job.

    Attributes:
        name: Human-readable identifier, used in reports.
        architecture: Deployment architecture (Table II taxonomy).
        num_cnodes: Number of computation nodes (GPU devices holding a
            model replica).  Always 1 for 1w1g.
        batch_size: Per-replica minibatch size.
        flop_count: FLOPs executed by compute-bound operations in one
            step on one cNode.
        memory_access_bytes: Bytes moved to/from GPU memory by
            memory-bound (element-wise) operations in one step.
        input_bytes: Input-sample bytes copied host-to-device (over PCIe)
            per step per cNode -- ``S_d`` in the model.
        weight_traffic_bytes: Weight/gradient bytes a cNode exchanges per
            step for synchronization -- ``S_w`` in the model.  Zero for
            1w1g.
        dense_weight_bytes: Dense parameter bytes at rest, including
            optimizer slots (Table IV "Dense weights").
        embedding_weight_bytes: Embedding parameter bytes at rest
            (Table IV "Embedding weights").
        embedding_traffic_bytes: The sparse *accessed* subset of
            ``weight_traffic_bytes`` that PEARL moves via AllGatherv
            instead of dense AllReduce.  Must not exceed
            ``weight_traffic_bytes``.
    """

    name: str
    architecture: Architecture
    num_cnodes: int
    batch_size: int
    flop_count: float
    memory_access_bytes: float
    input_bytes: float
    weight_traffic_bytes: float
    dense_weight_bytes: float = 0.0
    embedding_weight_bytes: float = 0.0
    embedding_traffic_bytes: float = 0.0

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with NaN is false.
        if not 1 <= self.num_cnodes < inf:
            raise ValueError("num_cnodes must be finite and at least 1")
        if not 1 <= self.batch_size < inf:
            raise ValueError("batch_size must be finite and at least 1")
        for field in (
            "flop_count",
            "memory_access_bytes",
            "input_bytes",
            "weight_traffic_bytes",
            "dense_weight_bytes",
            "embedding_weight_bytes",
            "embedding_traffic_bytes",
        ):
            if not 0.0 <= getattr(self, field) < inf:
                raise ValueError(f"{field} must be finite and non-negative")
        if self.architecture is Architecture.SINGLE:
            if self.num_cnodes != 1:
                raise ValueError("1w1g workloads use exactly one cNode")
            if self.weight_traffic_bytes != 0:
                raise ValueError("1w1g workloads exchange no weights")
        if self.architecture.is_local:
            if self.num_cnodes > self.architecture.max_local_cnodes:
                raise ValueError(
                    f"{self.architecture} supports at most "
                    f"{self.architecture.max_local_cnodes} cNodes, "
                    f"got {self.num_cnodes}"
                )
        if self.embedding_traffic_bytes > self.weight_traffic_bytes:
            raise ValueError(
                "embedding_traffic_bytes cannot exceed weight_traffic_bytes"
            )

    @property
    def weight_bytes(self) -> float:
        """Total model size at rest (dense + embedding weights)."""
        return self.dense_weight_bytes + self.embedding_weight_bytes

    @property
    def dense_traffic_bytes(self) -> float:
        """The dense share of the per-step synchronization traffic."""
        return self.weight_traffic_bytes - self.embedding_traffic_bytes

    @property
    def local_cnodes_per_server(self) -> int:
        """cNodes co-located on one server, for PCIe contention.

        Local architectures pack every cNode onto a single server.
        PS/Worker places one worker per server (Sec. II-A2), so no
        input-I/O contention arises; AllReduce-Cluster and PEARL pack
        8-GPU servers (NVLink within, Ethernet across).
        """
        if self.architecture in (
            Architecture.PEARL,
            Architecture.ALLREDUCE_CLUSTER,
        ):
            return min(self.num_cnodes, 8)
        if self.architecture.is_local:
            return self.num_cnodes
        return 1

    def with_architecture(
        self, architecture: Architecture, num_cnodes: int = None
    ) -> "WorkloadFeatures":
        """Re-deploy the same job under a different architecture.

        This is the primitive behind the Sec. III-C1 projections.  The
        fundamental per-step requirements (FLOPs, memory access, input
        volume, traffic volume) are properties of the model and batch
        size and therefore carry over unchanged; only the deployment
        fields are replaced.
        """
        replacement = {
            "architecture": architecture,
            "num_cnodes": self.num_cnodes if num_cnodes is None else num_cnodes,
        }
        if architecture is Architecture.SINGLE:
            replacement["weight_traffic_bytes"] = 0.0
            replacement["embedding_traffic_bytes"] = 0.0
        return dataclasses.replace(self, **replacement)
