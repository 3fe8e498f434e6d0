"""Collective-communication cost models (NCCL-style, Sec. II-A2/IV-C).

Alpha-beta cost models for the collectives the architectures use:

* ring AllReduce -- dense gradient exchange of the AllReduce
  architectures and PEARL's replicated weights;
* AllGather(v) / ReduceScatter -- PEARL's partitioned-embedding
  exchange, built on NCCL primitives (Sec. IV-C).

Each function returns the *per-node* busy time of the collective; the
executor charges it to the appropriate channels.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CollectiveCost",
    "ring_allreduce_time",
    "allgatherv_time",
    "reduce_scatter_time",
]


@dataclass(frozen=True)
class CollectiveCost:
    """Busy time on each medium for one collective invocation."""

    seconds: float
    volume_per_node: float
    medium: str


def _bandwidth_time(
    num_bytes: float, bandwidth: float, efficiency: float, latency: float, steps: int
) -> float:
    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return steps * latency + num_bytes / (bandwidth * efficiency)


def ring_allreduce_time(
    num_bytes: float,
    num_nodes: int,
    bandwidth: float,
    efficiency: float = 0.7,
    latency: float = 0.0,
) -> CollectiveCost:
    """A ring AllReduce of an ``num_bytes`` buffer over ``num_nodes``.

    Per-node traffic is ``2 (n-1)/n * S`` in each direction; with
    ``2(n-1)`` latency-bearing ring steps.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    if num_nodes == 1:
        return CollectiveCost(0.0, 0.0, "local")
    volume = 2.0 * (num_nodes - 1) / num_nodes * num_bytes
    seconds = _bandwidth_time(
        volume, bandwidth, efficiency, latency, steps=2 * (num_nodes - 1)
    )
    return CollectiveCost(seconds, volume, "ring")


def allgatherv_time(
    bytes_per_node: float,
    num_nodes: int,
    bandwidth: float,
    efficiency: float = 0.7,
    latency: float = 0.0,
    topology: str = "ring",
) -> CollectiveCost:
    """AllGatherv: every node contributes its (variable-size) slice.

    ``bytes_per_node`` is the average slice size.  On a ``"ring"`` each
    node forwards the other ``n-1`` slices serially; on a ``"mesh"``
    (the NVLink hybrid mesh grid of Fig. 1(b)) every pairwise exchange
    runs on its own link concurrently, so the critical path is a single
    slice.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    if num_nodes == 1:
        return CollectiveCost(0.0, 0.0, "local")
    if topology == "mesh":
        volume = float(bytes_per_node)
        steps = 1
    elif topology == "ring":
        volume = (num_nodes - 1) * bytes_per_node
        steps = num_nodes - 1
    else:
        raise ValueError(f"unknown topology: {topology!r}")
    seconds = _bandwidth_time(volume, bandwidth, efficiency, latency, steps)
    return CollectiveCost(seconds, volume, "allgatherv")


def reduce_scatter_time(
    num_bytes: float,
    num_nodes: int,
    bandwidth: float,
    efficiency: float = 0.7,
    latency: float = 0.0,
    topology: str = "ring",
) -> CollectiveCost:
    """ReduceScatter of an ``num_bytes`` buffer.

    Ring: ``(n-1)/n * S`` per node over ``n-1`` steps.  Mesh: each node
    sends its per-peer contributions concurrently, so the critical path
    is ``S/n``.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    if num_nodes == 1:
        return CollectiveCost(0.0, 0.0, "local")
    if topology == "mesh":
        volume = num_bytes / num_nodes
        steps = 1
    elif topology == "ring":
        volume = (num_nodes - 1) / num_nodes * num_bytes
        steps = num_nodes - 1
    else:
        raise ValueError(f"unknown topology: {topology!r}")
    seconds = _bandwidth_time(volume, bandwidth, efficiency, latency, steps)
    return CollectiveCost(seconds, volume, "reduce_scatter")
