"""Model graphs: op collections with aggregate resource accounting.

A :class:`ModelGraph` is the forward op list of one model at a given
batch size, plus enough metadata (input volume, sparse-access volume,
optimizer) to derive every Table IV / Table V quantity and, through
:mod:`repro.graphs.features_from_graph`, the analytical model's
:class:`~repro.core.features.WorkloadFeatures`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable, List, Tuple

from .ops import Op, OpKind, backward_ops
from .optimizers import MOMENTUM, Optimizer

__all__ = ["GraphTotals", "ModelGraph"]


@dataclass(frozen=True)
class GraphTotals:
    """Aggregate resource requirements of one op list."""

    flops: float
    compute_bound_flops: float
    memory_access_bytes: float
    memory_bound_access_bytes: float
    op_count: int

    @staticmethod
    def of(ops: Iterable[Op]) -> "GraphTotals":
        flops = 0.0
        cb_flops = 0.0
        access = 0.0
        mb_access = 0.0
        count = 0
        for op in ops:
            count += 1
            flops += op.flops
            access += op.memory_access_bytes
            if op.kind is OpKind.COMPUTE_BOUND:
                cb_flops += op.flops
            else:
                mb_access += op.memory_access_bytes
        return GraphTotals(
            flops=flops,
            compute_bound_flops=cb_flops,
            memory_access_bytes=access,
            memory_bound_access_bytes=mb_access,
            op_count=count,
        )


@dataclass(frozen=True)
class ModelGraph:
    """A model's forward graph at a fixed batch size.

    Attributes:
        name: Model name (matches Table IV rows for the case studies).
        domain: Application domain label (Table IV "Domain" column).
        forward: Forward-pass op list.
        batch_size: Per-replica minibatch size.
        input_bytes_per_sample: Host-to-device input volume per sample
            (fp32 image / spectrogram bytes, or id bytes for sparse
            models) -- drives the Table V "Memory Copy (PCIe)" column.
        embedding_access_bytes: Bytes of embedding rows *accessed* per
            step over the whole batch (one direction).  This is the
            sparse traffic PEARL exploits; zero for embedding-free
            models.
        optimizer: Determines the at-rest weight footprint multiplier.
    """

    name: str
    domain: str
    forward: Tuple[Op, ...]
    batch_size: int
    input_bytes_per_sample: float
    embedding_access_bytes: float = 0.0
    optimizer: Optimizer = MOMENTUM
    extra_dense_param_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.input_bytes_per_sample < 0:
            raise ValueError("input_bytes_per_sample must be non-negative")
        if self.embedding_access_bytes < 0:
            raise ValueError("embedding_access_bytes must be non-negative")
        if self.extra_dense_param_bytes < 0:
            raise ValueError("extra_dense_param_bytes must be non-negative")
        if not self.forward:
            raise ValueError("model graph has no operations")

    # ---- op lists -------------------------------------------------
    #
    # The simulator reads ``training_step`` once per replica, so both
    # lists are built on first read and kept.  ``cached_property``
    # stores in the instance ``__dict__``, which a frozen dataclass
    # allows; the forward tuple is immutable, so the lists never go
    # stale, and ``dataclasses.replace`` copies start without them.

    @functools.cached_property
    def backward(self) -> Tuple[Op, ...]:
        """Backward-pass ops synthesized from the forward list."""
        return tuple(backward_ops(list(self.forward)))

    @functools.cached_property
    def training_step(self) -> Tuple[Op, ...]:
        """Forward followed by backward: the ops of one training step."""
        return self.forward + self.backward

    # ---- parameters ----------------------------------------------

    @property
    def dense_trainable_bytes(self) -> float:
        """Trainable dense-variable bytes (no optimizer slots)."""
        dense = sum(
            op.param_bytes for op in self.forward if not op.is_embedding
        )
        return dense + self.extra_dense_param_bytes

    @property
    def embedding_trainable_bytes(self) -> float:
        """Trainable embedding-table bytes (no optimizer slots)."""
        return sum(op.param_bytes for op in self.forward if op.is_embedding)

    @property
    def dense_weight_bytes(self) -> float:
        """Dense weights at rest, optimizer slots included (Table IV)."""
        return self.optimizer.at_rest_bytes(self.dense_trainable_bytes)

    @property
    def embedding_weight_bytes(self) -> float:
        """Embedding weights at rest, optimizer slots included."""
        return self.optimizer.at_rest_bytes(self.embedding_trainable_bytes)

    @property
    def weight_bytes(self) -> float:
        """Total at-rest model footprint (Fig. 6(b) scale)."""
        return self.dense_weight_bytes + self.embedding_weight_bytes

    # ---- per-step requirements (Table V) ---------------------------

    @property
    def forward_totals(self) -> GraphTotals:
        return GraphTotals.of(self.forward)

    @property
    def training_totals(self) -> GraphTotals:
        return GraphTotals.of(self.training_step)

    @property
    def flop_count(self) -> float:
        """Compute-bound FLOPs of one training step (Table V)."""
        return self.training_totals.compute_bound_flops

    @property
    def memory_access_bytes(self) -> float:
        """Memory-bound access bytes of one training step (Table V)."""
        return self.training_totals.memory_bound_access_bytes

    @property
    def input_bytes(self) -> float:
        """Host-to-device input volume of one step (Table V PCIe copy)."""
        return self.input_bytes_per_sample * self.batch_size

    # ---- transformations -------------------------------------------

    def with_forward(self, forward: Iterable[Op]) -> "ModelGraph":
        """A copy with a transformed forward op list (optimization passes)."""
        return replace(self, forward=tuple(forward))

    def with_batch_size(self, batch_size: int, scale_ops: bool = True) -> "ModelGraph":
        """A copy rescaled to a different batch size.

        Per-step FLOPs, memory access and embedding-access volumes scale
        linearly in batch size (parameters do not).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        factor = batch_size / self.batch_size
        forward: List[Op] = list(self.forward)
        if scale_ops:
            forward = [
                replace(
                    op,
                    flops=op.flops * factor,
                    memory_access_bytes=op.memory_access_bytes * factor,
                )
                for op in forward
            ]
        return replace(
            self,
            forward=tuple(forward),
            batch_size=batch_size,
            embedding_access_bytes=self.embedding_access_bytes * factor,
        )

    def summary(self) -> dict:
        """A Table IV/V-shaped summary of this model."""
        return {
            "name": self.name,
            "domain": self.domain,
            "batch_size": self.batch_size,
            "dense_weight_bytes": self.dense_weight_bytes,
            "embedding_weight_bytes": self.embedding_weight_bytes,
            "flop_count": self.flop_count,
            "memory_access_bytes": self.memory_access_bytes,
            "input_bytes": self.input_bytes,
            "op_count": len(self.forward),
        }
