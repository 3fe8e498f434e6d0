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
releasing touch only those servers, one byte each; only the placement
scan itself reads every server's free count, and it reads them at C
speed (see :class:`Fleet`).  The placements :meth:`Fleet.try_place`
makes skip the public constructor's checks: the fleet built them, so
their servers already ascend and their counts are positive ints.

Because local gangs need *contiguous* per-server capacity, a fleet can
hold many free GPUs yet be unable to start a job -- the fragmentation
the telemetry in :mod:`repro.sched.outcomes` tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.architectures import Architecture

__all__ = ["Fleet", "Placement"]

#: The most GPUs a server can hold: a free count is one byte.
_MAX_GPUS_PER_SERVER = 255

#: ``_BELOW[w]`` is the bytes ``0 .. w-1``, so ``free.lstrip(_BELOW[w])``
#: drops the leading servers with fewer than ``w`` free GPUs.
_BELOW = tuple(
    bytes(range(width)) for width in range(_MAX_GPUS_PER_SERVER + 1)
)


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

    Free counts live in one ``bytearray``, one byte per server, so a
    server holds at most 255 GPUs (the constructor refuses more).  The
    placement scans read those bytes at C speed rather than in
    per-server Python loops:

    * first fit for a local gang of ``w`` GPUs is one ``lstrip`` of the
      leading servers with fewer than ``w`` free;
    * PS/Worker first counts the servers with no free GPU, then takes
      the first ``w`` with one from a NumPy view;
    * packed cluster shapes first test the kept free total, then fill
      greedily with a cumulative sum over the same view.

    A view is made for the one call and never stored: ``copy.deepcopy``
    or pickle would copy a stored view apart from the bytes it reads.
    Allocating and releasing change only the bytes of the servers a
    placement holds.  On the multi-thousand-server fleets the scheduler
    experiments sweep, the scan is the scheduler's hot path.

    Raises:
        ValueError: A dimension is not positive, or ``gpus_per_server``
            is above 255.
    """

    def __init__(self, num_servers: int, gpus_per_server: int = 8) -> None:
        if num_servers < 1 or gpus_per_server < 1:
            raise ValueError("cluster dimensions must be positive")
        if gpus_per_server > _MAX_GPUS_PER_SERVER:
            raise ValueError(
                f"gpus_per_server must be at most {_MAX_GPUS_PER_SERVER} "
                f"(one byte per server), got {gpus_per_server}"
            )
        self.num_servers = num_servers
        self.gpus_per_server = gpus_per_server
        self._free = bytearray((gpus_per_server,)) * num_servers
        #: ``sum(_free)``, kept by ``try_place`` and ``release``.
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
        return int(np.frombuffer(self._free, np.uint8).max())

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
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """The servers and per-server counts of a placement, or
        ``None`` if it does not fit right now.  Does not mutate the
        fleet.

        Every shape reproduces the greedy left-to-right scan exactly:
        first fit picks the lowest-indexed server with room, and the
        cluster fill takes ``min(free, cap)`` per server until the
        running total (a cumulative sum) reaches the request.  The
        entries are Python ints, the servers ascend and the counts are
        positive, as :class:`Placement` requires.
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        free = self._free
        num_servers = self.num_servers
        if architecture.is_local:
            if num_gpus > self.gpus_per_server:
                return None
            server = num_servers - len(free.lstrip(_BELOW[num_gpus]))
            if server == num_servers:
                return None
            return (server,), (num_gpus,)
        if architecture is Architecture.PS_WORKER:
            if num_servers - free.count(0) < num_gpus:
                return None
            servers = np.frombuffer(free, np.uint8).nonzero()[0][:num_gpus]
            return tuple(servers.tolist()), (1,) * num_gpus
        if self._free_total < num_gpus:
            return None
        # A server's free count never exceeds its capacity, so the
        # packed fill takes all of it.
        grab = np.frombuffer(free, np.uint8)
        cumulative = grab.cumsum(dtype=np.int64)
        stop = int(cumulative.searchsorted(num_gpus))
        # grab[stop] > 0, so the last server held is ``stop`` and
        # trimming the overshoot leaves it a positive count.
        servers = grab[: stop + 1].nonzero()[0]
        counts = grab[servers].tolist()
        counts[-1] -= cumulative.item(stop) - num_gpus
        return tuple(servers.tolist()), tuple(counts)

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
            free[server] -= count
        self._free_total -= num_gpus
        # The fleet made the shape, so the constructor's checks would
        # only repeat what ``_shape`` guarantees.
        placement = object.__new__(Placement)
        object.__setattr__(placement, "servers", servers)
        object.__setattr__(placement, "counts", counts)
        return placement

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
            if free[server] + count > room:
                raise ValueError("release would exceed server capacity")
        for server, count in zip(servers, counts):
            free[server] += count
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
        free = self._free.copy()
        num_servers = self.num_servers
        room = self.gpus_per_server
        local = architecture.is_local
        spread = architecture is Architecture.PS_WORKER
        if local:
            reach = self.largest_free_block
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
