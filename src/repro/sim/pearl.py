"""PEARL: Partitioned Embedding And RepLicated dense weights (Sec. IV-C).

PEARL is the paper's proposed distribution strategy for models with one
large sparse embedding and many small dense weights (GCN-class models):

* the **embedding table is partitioned** across the workers' GPU
  memories (it cannot be replicated -- tens of GB per table);
* at the start of each step the accessed rows are exchanged with an
  **AllGatherv** built on NCCL primitives over NVLink;
* embedding gradients return via **ReduceScatter**;
* the small **dense weights are replicated** and synchronized with a
  plain ring **AllReduce**.

This module computes the partition plan and the collective schedule;
the executor charges the resulting busy times to the NVLink channels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.graph import ModelGraph
from .collectives import (
    CollectiveCost,
    allgatherv_time,
    reduce_scatter_time,
    ring_allreduce_time,
)

__all__ = ["PearlPartition", "PearlSchedule", "plan_pearl", "pearl_schedule"]


@dataclass(frozen=True)
class PearlPartition:
    """How the embedding table is split across workers."""

    num_workers: int
    embedding_bytes: float
    shard_bytes: float
    accessed_bytes_per_step: float

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.shard_bytes < 0 or self.embedding_bytes < 0:
            raise ValueError("byte volumes must be non-negative")

    def fits_in(self, gpu_memory_capacity: float) -> bool:
        """Whether each shard fits alongside the model replica."""
        return self.shard_bytes <= gpu_memory_capacity * 0.8


def plan_pearl(graph: ModelGraph, num_workers: int) -> PearlPartition:
    """Partition a model's embedding table across ``num_workers`` GPUs."""
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    embedding = graph.embedding_weight_bytes
    return PearlPartition(
        num_workers=num_workers,
        embedding_bytes=embedding,
        shard_bytes=embedding / num_workers,
        accessed_bytes_per_step=graph.embedding_access_bytes,
    )


@dataclass(frozen=True)
class PearlSchedule:
    """The per-step collective schedule of a PEARL worker."""

    gather: CollectiveCost
    scatter: CollectiveCost
    dense_allreduce: CollectiveCost


def pearl_schedule(
    graph: ModelGraph,
    num_workers: int,
    nvlink_bandwidth: float,
    network_efficiency: float = 0.7,
    nvlink_latency: float = 0.0,
) -> PearlSchedule:
    """Build the collective schedule for one PEARL training step.

    The accessed embedding rows (``graph.embedding_access_bytes`` is
    the round-trip volume: gather + gradient return) are split between
    the AllGatherv (forward) and the ReduceScatter (backward); each
    worker sources ``1/n`` of the rows, so the per-worker slice is the
    one-way volume divided by ``num_workers``.
    """
    one_way = graph.embedding_access_bytes / 2.0
    slice_per_worker = one_way / max(num_workers, 1)
    gather = allgatherv_time(
        slice_per_worker,
        num_workers,
        nvlink_bandwidth,
        network_efficiency,
        nvlink_latency,
        topology="mesh",
    )
    scatter = reduce_scatter_time(
        one_way,
        num_workers,
        nvlink_bandwidth,
        network_efficiency,
        nvlink_latency,
        topology="mesh",
    )
    dense = ring_allreduce_time(
        graph.dense_trainable_bytes,
        num_workers,
        nvlink_bandwidth,
        network_efficiency,
        nvlink_latency,
    )
    return PearlSchedule(gather=gather, scatter=scatter, dense_allreduce=dense)
