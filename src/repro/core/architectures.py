"""The five training-system architectures of Table II, plus PEARL.

Each architecture determines *where* weights/gradients move (the media on
the synchronization path), whether input data I/O contends for PCIe with
sibling GPUs on the same server, and how many cNodes may share a server.

============== ============= ============= =========================
Workload type  Sys. arch.    Configuration Weight movement
============== ============= ============= =========================
1w1g           --            Local         -- (no synchronization)
1wng           Centralized   Local         PCIe
PS/Worker      Centralized   Cluster       Ethernet & PCIe
AllReduceLocal Decentralized Local         NVLink
AllReduceClust Decentralized Cluster       Ethernet & NVLink
PEARL          Hybrid        Local/Cluster NVLink (sparse-aware)
============== ============= ============= =========================
"""

from __future__ import annotations

import enum
from typing import Tuple

__all__ = ["Architecture", "MEDIA_GPU_FLOPS", "MEDIA_GPU_MEMORY"]

# Pseudo-media names used when attributing computation time to hardware
# components (the Fig. 8(a) view).
MEDIA_GPU_FLOPS = "GPU_FLOPs"
MEDIA_GPU_MEMORY = "GPU_memory"


class Architecture(enum.Enum):
    """A data-parallel training architecture (Sec. II-A2)."""

    SINGLE = "1w1g"
    LOCAL_CENTRALIZED = "1wng"
    PS_WORKER = "PS/Worker"
    ALLREDUCE_LOCAL = "AllReduce-Local"
    ALLREDUCE_CLUSTER = "AllReduce-Cluster"
    PEARL = "PEARL"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "Architecture":
        """Look an architecture up by its paper label (``"PS/Worker"``)."""
        for member in cls:
            if member.value.lower() == label.lower():
                return member
        raise KeyError(f"unknown architecture label: {label!r}")

    @property
    def is_local(self) -> bool:
        """Whether all cNodes live on one physical server."""
        return self in (
            Architecture.SINGLE,
            Architecture.LOCAL_CENTRALIZED,
            Architecture.ALLREDUCE_LOCAL,
        )

    @property
    def is_centralized(self) -> bool:
        """Whether parameters are managed by central nodes (PS-style)."""
        return self in (
            Architecture.LOCAL_CENTRALIZED,
            Architecture.PS_WORKER,
        )

    @property
    def weight_media(self) -> Tuple[str, ...]:
        """Media traversed by weight/gradient traffic, per Table II.

        Multi-hop paths (PS/Worker, AllReduce-Cluster) are serialized: the
        analytical model adds ``S_w / B`` once per medium on the path, which
        is what makes Eq. 3's 21x speedup exact.
        """
        if self is Architecture.SINGLE:
            return ()
        if self is Architecture.LOCAL_CENTRALIZED:
            return ("PCIe",)
        if self is Architecture.PS_WORKER:
            return ("Ethernet", "PCIe")
        if self is Architecture.ALLREDUCE_LOCAL:
            return ("NVLink",)
        if self is Architecture.ALLREDUCE_CLUSTER:
            return ("Ethernet", "NVLink")
        if self is Architecture.PEARL:
            return ("NVLink",)
        raise AssertionError(f"unhandled architecture: {self!r}")

    @property
    def input_contends_for_pcie(self) -> bool:
        """Whether sibling GPUs on a server share PCIe for input data.

        In multi-GPU-per-server architectures every GPU's input batch
        crosses the same host PCIe complex simultaneously (Sec. III-C1:
        "... slow-down of input data I/O, due to the competition for
        PCIe bandwidth"), so the per-cNode effective input bandwidth is
        divided by the number of co-located cNodes.  PS/Worker places
        each worker on a separate server and suffers no contention;
        AllReduce-Cluster packs servers with 8 GPUs (NVLink within,
        Ethernet across) and does.
        """
        return self in (
            Architecture.LOCAL_CENTRALIZED,
            Architecture.ALLREDUCE_LOCAL,
            Architecture.ALLREDUCE_CLUSTER,
            Architecture.PEARL,
        )

    @property
    def max_local_cnodes(self) -> int:
        """Upper bound on cNodes for local architectures (8 GPUs/server)."""
        if self is Architecture.SINGLE:
            return 1
        if self.is_local:
            return 8
        return 1 << 20  # effectively unbounded for cluster architectures

    @property
    def requires_nvlink(self) -> bool:
        """Whether the architecture depends on NVLink-equipped servers."""
        return self in (
            Architecture.ALLREDUCE_LOCAL,
            Architecture.ALLREDUCE_CLUSTER,
            Architecture.PEARL,
        )

    @property
    def supports_partitioned_weights(self) -> bool:
        """Whether weights larger than one GPU's memory are trainable.

        AllReduce in representative frameworks supports only the
        weight-replica mode, so the entire model must fit in a single
        GPU's memory; PS/Worker partitions variables across parameter
        servers in host memory and PEARL partitions embeddings across
        worker GPUs.
        """
        return self in (
            Architecture.LOCAL_CENTRALIZED,
            Architecture.PS_WORKER,
            Architecture.PEARL,
        )
