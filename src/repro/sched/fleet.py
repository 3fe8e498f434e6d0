"""The fleet resource model: 8-GPU servers with shaped placement.

A :class:`Fleet` tracks per-server free-GPU counts for a homogeneous
cluster of multi-GPU servers (PAI's production fleet is built from
8-GPU machines).  Placement is *architecture shaped*, mirroring the
Table II deployment taxonomy:

* local architectures (1w1g, 1wng, AllReduce-Local) are gang-scheduled
  onto **one** server (first-fit over per-server free counts);
* PS/Worker spreads one worker GPU per server, so a wide PS job needs
  at least as many servers as workers;
* packed cluster architectures (AllReduce-Cluster, PEARL) fill servers
  greedily up to their GPU count.

A :class:`Placement` is *sparse*: the ascending indices of the servers
a job holds GPUs on and the positive count on each, so it has at most
``num_cnodes`` entries however large the fleet is.  Allocating and
releasing touch only those servers; only the placement scan itself
reads every server's free count.

Because local gangs need *contiguous* per-server capacity, a fleet can
hold many free GPUs yet be unable to start a job -- the fragmentation
the telemetry in :mod:`repro.sched.outcomes` tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.architectures import Architecture

__all__ = ["Fleet", "Placement"]


@dataclass(frozen=True, init=False)
class Placement:
    """GPUs held by one running job, as sparse per-server counts.

    Attributes:
        servers: Indices of the servers holding the job's GPUs, strictly
            ascending.
        counts: GPUs held on each of ``servers``, all positive.

    ``Placement(gpus_by_server=...)`` builds one from dense per-server
    counts, dropping the idle servers; only the sparse fields are kept.

    Raises:
        ValueError: ``servers`` and ``counts`` differ in length, a
            server index is negative or out of order (a repeated server
            would over-release on :meth:`Fleet.release`), or a count is
            not positive.
    """

    servers: Tuple[int, ...]
    counts: Tuple[int, ...]

    def __init__(
        self,
        servers: Sequence[int] = (),
        counts: Sequence[int] = (),
        *,
        gpus_by_server: Optional[Sequence[int]] = None,
    ) -> None:
        if gpus_by_server is not None:
            if servers or counts:
                raise ValueError(
                    "pass gpus_by_server or servers/counts, not both"
                )
            servers = [s for s, count in enumerate(gpus_by_server) if count]
            counts = [gpus_by_server[server] for server in servers]
        servers = tuple(servers)
        counts = tuple(counts)
        if len(servers) != len(counts):
            raise ValueError("a placement needs one count per server")
        if servers and (
            servers[0] < 0 or not all(map(lt, servers, servers[1:]))
        ):
            raise ValueError(
                "placement servers must be non-negative and strictly "
                "ascending"
            )
        if counts and min(counts) < 1:
            raise ValueError("placement counts must be positive")
        object.__setattr__(self, "servers", servers)
        object.__setattr__(self, "counts", counts)

    @property
    def total_gpus(self) -> int:
        """GPUs held across all servers."""
        return sum(self.counts)


class Fleet:
    """Per-server free-GPU accounting for a homogeneous cluster.

    Free counts live in one ``int64`` array, so the placement scans --
    first-fit for local gangs, greedy left-to-right fill for cluster
    shapes -- are single NumPy operations rather than per-server Python
    loops.  On the multi-thousand-server fleets the scheduler
    experiments sweep, the scan is the scheduler's hot path.
    """

    def __init__(self, num_servers: int, gpus_per_server: int = 8) -> None:
        if num_servers < 1 or gpus_per_server < 1:
            raise ValueError("cluster dimensions must be positive")
        self.num_servers = num_servers
        self.gpus_per_server = gpus_per_server
        self._free: np.ndarray = np.full(
            num_servers, gpus_per_server, dtype=np.int64
        )
        #: ``_free.sum()``, kept by ``try_place`` and ``release``.
        self._free_total = num_servers * gpus_per_server

    # ---- capacity accounting -----------------------------------------

    @property
    def total_gpus(self) -> int:
        """GPUs in the fleet."""
        return self.num_servers * self.gpus_per_server

    @property
    def free_gpus(self) -> int:
        """Currently unallocated GPUs."""
        return self._free_total

    @property
    def busy_gpus(self) -> int:
        """Currently allocated GPUs."""
        return self.total_gpus - self._free_total

    @property
    def largest_free_block(self) -> int:
        """Largest single-server free block (bounds local gang size)."""
        return int(self._free.max())

    def utilization(self) -> float:
        """Fraction of GPUs currently allocated."""
        return self.busy_gpus / self.total_gpus

    def fragmentation(self) -> float:
        """How scattered the free capacity is, in [0, 1].

        Zero when every free GPU sits in one server block (a local gang
        as large as the free pool could start); approaches one when the
        free GPUs are spread one per server.  Zero on a fully busy
        fleet, where the notion is vacuous.
        """
        free = self._free_total
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_block / free

    def clone(self) -> "Fleet":
        """An independent copy, for trial placements."""
        copy = Fleet.__new__(Fleet)
        copy.num_servers = self.num_servers
        copy.gpus_per_server = self.gpus_per_server
        copy._free = self._free.copy()
        copy._free_total = self._free_total
        return copy

    # ---- placement ---------------------------------------------------

    def _shape(
        self, architecture: Architecture, num_gpus: int
    ) -> Optional[Tuple[List[int], List[int]]]:
        """The servers and per-server counts of a placement, or
        ``None`` if it does not fit right now.  Does not mutate the
        fleet.

        Both shapes reproduce the greedy left-to-right scan exactly:
        first-fit picks the lowest-indexed server with room, and the
        cluster fill takes ``min(free, cap)`` per server until the
        running total (a cumulative sum) reaches the request.
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        if architecture.is_local:
            fits_here = self._free >= num_gpus
            server = int(fits_here.argmax())
            if not fits_here[server]:
                return None
            return [server], [num_gpus]
        per_server_cap = (
            1 if architecture is Architecture.PS_WORKER else self.gpus_per_server
        )
        grab_cap = np.minimum(self._free, per_server_cap)
        cumulative = grab_cap.cumsum()
        stop = int(cumulative.searchsorted(num_gpus))
        if stop == self.num_servers:
            return None  # every server's share together falls short
        # grab_cap[stop] > 0, so the last server held is ``stop`` and
        # trimming the overshoot leaves it a positive count.
        servers = grab_cap[: stop + 1].nonzero()[0]
        counts = grab_cap[servers].tolist()
        counts[-1] -= cumulative.item(stop) - num_gpus
        return servers.tolist(), counts

    def fits(self, architecture: Architecture, num_gpus: int) -> bool:
        """Whether the job could be placed on the fleet right now."""
        return self._shape(architecture, num_gpus) is not None

    def can_ever_place(self, architecture: Architecture, num_gpus: int) -> bool:
        """Whether the job fits an *empty* fleet of this geometry."""
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        if architecture.is_local:
            return num_gpus <= self.gpus_per_server
        if architecture is Architecture.PS_WORKER:
            return num_gpus <= self.num_servers
        return num_gpus <= self.total_gpus

    def try_place(
        self, architecture: Architecture, num_gpus: int
    ) -> Optional[Placement]:
        """Allocate GPUs in the architecture's shape, or return ``None``."""
        shape = self._shape(architecture, num_gpus)
        if shape is None:
            return None
        servers, counts = shape
        free = self._free
        for server, count in zip(servers, counts):
            free[server] = free.item(server) - count
        self._free_total -= num_gpus
        return Placement(servers, counts)

    def release(self, placement: Placement) -> None:
        """Return a placement's GPUs to the free pool.

        Raises:
            ValueError: The placement names a server outside the fleet
                or would push a server past its capacity; the fleet is
                left unchanged.
        """
        servers, counts = placement.servers, placement.counts
        # Servers ascend, so the last one is the largest index.
        if servers and servers[-1] >= self.num_servers:
            raise ValueError(
                "placement does not match this fleet's geometry"
            )
        free = self._free
        room = self.gpus_per_server
        for server, count in zip(servers, counts):
            if free.item(server) + count > room:
                raise ValueError("release would exceed server capacity")
        for server, count in zip(servers, counts):
            free[server] = free.item(server) + count
        self._free_total += sum(counts)

    def releases_to_fit(
        self,
        architecture: Architecture,
        num_gpus: int,
        placements: Iterable[Placement],
    ) -> Optional[int]:
        """How many of ``placements``, released in order, the job waits
        for before it fits, or ``None`` if releasing all of them is not
        enough.  Does not mutate the fleet.

        The answer equals releasing them one at a time on a clone and
        calling :meth:`fits` after each -- never before the first, so
        an empty ``placements`` gives ``None`` -- but one scan over a
        copy of the free counts tracks each shape's test incrementally:
        the largest free block for local gangs, the servers with a free
        GPU for PS/Worker, and the free total for packed cluster shapes.

        Raises:
            ValueError: ``num_gpus`` is not positive, or a placement
                reached before the job fits names a server outside the
                fleet or would push a server past its capacity (as
                :meth:`release` would).
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        free = self._free.tolist()
        num_servers = self.num_servers
        room = self.gpus_per_server
        local = architecture.is_local
        spread = architecture is Architecture.PS_WORKER
        if local:
            reach = max(free)
        elif spread:
            reach = num_servers - free.count(0)
        else:
            reach = self._free_total
        for released, placement in enumerate(placements, 1):
            servers = placement.servers
            if servers and servers[-1] >= num_servers:
                raise ValueError(
                    "placement does not match this fleet's geometry"
                )
            # Checking each entry as it is added is as good as checking
            # all of them first: ``free`` is a private copy, dropped on
            # a raise, and a placement names each server once.
            for server, count in zip(servers, placement.counts):
                before = free[server]
                after = before + count
                if after > room:
                    raise ValueError("release would exceed server capacity")
                free[server] = after
                if local:
                    if after > reach:
                        reach = after
                elif spread:
                    if not before:
                        reach += 1
                else:
                    reach += count
            if reach >= num_gpus:
                return released
        return None
