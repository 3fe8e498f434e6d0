"""Fleet accounting as a state machine, checked against two oracles.

Hypothesis drives a :class:`~repro.sched.fleet.Fleet`, and clones of it,
through random ``try_place`` / ``fits`` / ``release`` / ``clone`` /
``releases_to_fit`` steps.  Every placement is compared with
:func:`dense_shape`: the dense per-server scan the fleet ran before
placements became sparse, kept here as the oracle.  Every
``releases_to_fit`` answer is compared with
:func:`released_until_fit`: the clone, release, ``fits`` loop backfill
and priority ran before the one-pass scan, kept here too.  After every
step each fleet's free GPUs plus the GPUs its placements hold equal its
capacity, server by server, which also shows that a clone shares
nothing with its source, and the free total the fleet keeps equals the
sum of its per-server free counts.  A release the fleet rejects, and any
``releases_to_fit`` call, must leave every free count as it was.
"""

from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.architectures import Architecture
from repro.sched.fleet import Fleet, Placement

MAX_FLEETS = 4


def free_by_server(fleet):
    """Free GPU count per server, read from the fleet's own array."""
    return tuple(int(free) for free in fleet._free)


def dense_shape(
    free: np.ndarray,
    gpus_per_server: int,
    architecture: Architecture,
    num_gpus: int,
) -> Optional[np.ndarray]:
    """Per-server counts of the placement the fleet must make, or
    ``None`` if it does not fit: first-fit onto one server for local
    shapes, a greedy left-to-right fill of ``min(free, cap)`` per
    server for cluster shapes."""
    if architecture.is_local:
        fits_here = free >= num_gpus
        if not fits_here.any():
            return None
        taken = np.zeros(len(free), dtype=np.int64)
        taken[int(fits_here.argmax())] = num_gpus
        return taken
    per_server_cap = (
        1 if architecture is Architecture.PS_WORKER else gpus_per_server
    )
    grab_cap = np.minimum(free, per_server_cap)
    cumulative = np.cumsum(grab_cap)
    if cumulative[-1] < num_gpus:
        return None
    stop = int(np.searchsorted(cumulative, num_gpus))
    taken = np.zeros(len(free), dtype=np.int64)
    taken[: stop + 1] = grab_cap[: stop + 1]
    taken[stop] -= int(cumulative[stop]) - num_gpus
    return taken


def released_until_fit(
    fleet: Fleet,
    architecture: Architecture,
    num_gpus: int,
    placements: Sequence[Placement],
) -> Optional[int]:
    """How many of ``placements``, released in order on a clone, the
    job waits for before ``fits`` says yes; ``None`` if all of them are
    not enough.  A placement the clone rejects raises ``ValueError``."""
    shadow = fleet.clone()
    for released, placement in enumerate(placements, 1):
        shadow.release(placement)
        if shadow.fits(architecture, num_gpus):
            return released
    return None


def _answer(scan, *args):
    """A scan's result, or ``ValueError`` if it raised one."""
    try:
        return scan(*args)
    except ValueError:
        return ValueError


#: One architecture per shape test -- a local gang, PS/Worker, a
#: packed cluster fill -- and the widest job of that shape a fleet can
#: hold.
FAMILIES = {
    Architecture.ALLREDUCE_LOCAL: lambda fleet: fleet.gpus_per_server,
    Architecture.PS_WORKER: lambda fleet: fleet.num_servers,
    Architecture.ALLREDUCE_CLUSTER: lambda fleet: fleet.total_gpus,
}


class FleetMachine(RuleBasedStateMachine):
    """Fleets and the placements each one holds."""

    def __init__(self) -> None:
        super().__init__()
        self.fleets: List[Fleet] = []
        self.held: List[List[Placement]] = []

    @initialize(
        num_servers=st.integers(1, 6), gpus_per_server=st.integers(1, 8)
    )
    def build(self, num_servers, gpus_per_server):
        self.fleets.append(Fleet(num_servers, gpus_per_server))
        self.held.append([])

    def _pick(self, data) -> int:
        return data.draw(st.integers(0, len(self.fleets) - 1))

    @rule(
        data=st.data(),
        architecture=st.sampled_from(list(Architecture)),
        extra=st.integers(0, 2),
    )
    def place(self, data, architecture, extra):
        index = self._pick(data)
        fleet = self.fleets[index]
        num_gpus = data.draw(st.integers(1, fleet.total_gpus + extra))
        before = np.array(free_by_server(fleet))
        expected = dense_shape(
            before, fleet.gpus_per_server, architecture, num_gpus
        )
        assert fleet.fits(architecture, num_gpus) == (expected is not None)
        assert free_by_server(fleet) == tuple(before)
        placement = fleet.try_place(architecture, num_gpus)
        if expected is None:
            assert placement is None
            assert free_by_server(fleet) == tuple(before)
            return
        servers = tuple(int(s) for s in np.flatnonzero(expected))
        assert placement.servers == servers
        assert placement.counts == tuple(int(expected[s]) for s in servers)
        assert placement.total_gpus == num_gpus
        assert len(placement.servers) <= num_gpus
        assert free_by_server(fleet) == tuple(before - expected)
        self.held[index].append(placement)

    @precondition(lambda self: any(self.held))
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(
            st.sampled_from([i for i, held in enumerate(self.held) if held])
        )
        held = self.held[index]
        placement = held.pop(data.draw(st.integers(0, len(held) - 1)))
        self.fleets[index].release(placement)

    @rule(data=st.data(), out_of_range=st.booleans())
    def rejected_release(self, data, out_of_range):
        fleet = self.fleets[self._pick(data)]
        free = free_by_server(fleet)
        servers = sorted(
            data.draw(
                st.sets(st.integers(0, fleet.num_servers - 1), min_size=1)
            )
        )
        counts = [
            data.draw(st.integers(1, fleet.gpus_per_server)) for _ in servers
        ]
        if out_of_range:
            servers.append(
                fleet.num_servers + data.draw(st.integers(0, 3))
            )
            counts.append(1)
        else:
            # One server gets back more GPUs than it has in use.
            spot = data.draw(st.integers(0, len(servers) - 1))
            server = servers[spot]
            counts[spot] = fleet.gpus_per_server - free[server] + 1
        with pytest.raises(ValueError):
            fleet.release(Placement(servers=servers, counts=counts))
        assert free_by_server(fleet) == free

    @rule(
        data=st.data(),
        spoiler=st.sampled_from([None, "foreign", "over_capacity"]),
    )
    def releases_to_fit(self, data, spoiler):
        index = self._pick(data)
        fleet = self.fleets[index]
        held = data.draw(st.permutations(self.held[index]))
        placements = held[: data.draw(st.integers(0, len(held)))]
        if spoiler is not None:
            # Wherever it lands, the spoiler is invalid when reached:
            # it names a server past the fleet, or returns one more GPU
            # to a server than that server has in use now (releases
            # ahead of it only raise the free count further).
            server = data.draw(st.integers(0, fleet.num_servers - 1))
            if spoiler == "foreign":
                bad = Placement(servers=(fleet.num_servers,), counts=(1,))
            else:
                room = fleet.gpus_per_server - free_by_server(fleet)[server]
                bad = Placement(servers=(server,), counts=(room + 1,))
            placements.insert(
                data.draw(st.integers(0, len(placements))), bad
            )
        before = free_by_server(fleet)
        for architecture, widest in FAMILIES.items():
            # One past the widest never fits.
            num_gpus = data.draw(st.integers(1, widest(fleet) + 1))
            args = (fleet, architecture, num_gpus, placements)
            expected = _answer(released_until_fit, *args)
            assert _answer(Fleet.releases_to_fit, *args) == expected
            if spoiler is not None and placements[0] is bad:
                assert expected is ValueError
            assert free_by_server(fleet) == before

    @precondition(lambda self: len(self.fleets) < MAX_FLEETS)
    @rule(data=st.data())
    def clone(self, data):
        index = self._pick(data)
        self.fleets.append(self.fleets[index].clone())
        self.held.append(list(self.held[index]))

    @invariant()
    def free_plus_held_is_capacity(self):
        for fleet, held in zip(self.fleets, self.held):
            in_use = np.zeros(fleet.num_servers, dtype=np.int64)
            for placement in held:
                for server, count in zip(placement.servers, placement.counts):
                    in_use[server] += count
            free = np.array(free_by_server(fleet))
            assert (free + in_use == fleet.gpus_per_server).all()
            assert fleet.free_gpus + int(in_use.sum()) == fleet.total_gpus

    @invariant()
    def free_total_is_the_sum_over_servers(self):
        for fleet in self.fleets:
            assert fleet.free_gpus == sum(free_by_server(fleet))
            assert fleet.busy_gpus == fleet.total_gpus - fleet.free_gpus


FleetMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestFleetMachine = FleetMachine.TestCase
