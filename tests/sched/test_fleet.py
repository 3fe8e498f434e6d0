"""The fleet resource model: shaped placement and accounting."""

import copy
import pickle

import pytest

from repro.core.architectures import Architecture
from repro.sched.fleet import Fleet, Placement

from sched_helpers import free_by_server


class TestValidation:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError):
            Fleet(num_servers=0)
        with pytest.raises(ValueError):
            Fleet(num_servers=2, gpus_per_server=0)

    def test_a_server_holds_at_most_255_gpus(self):
        # A free count is one byte.
        with pytest.raises(ValueError, match="gpus_per_server"):
            Fleet(1, 256)

    def test_num_gpus_must_be_positive(self):
        fleet = Fleet(num_servers=2)
        with pytest.raises(ValueError):
            fleet.try_place(Architecture.SINGLE, 0)

    def test_release_checks_geometry(self):
        fleet = Fleet(num_servers=2)
        fleet.try_place(Architecture.ALLREDUCE_CLUSTER, 16)
        with pytest.raises(ValueError, match="geometry"):
            fleet.release(Placement(servers=(1, 2), counts=(1, 1)))
        assert free_by_server(fleet) == (0, 0)

    def test_release_checks_capacity(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 8)
        with pytest.raises(ValueError, match="capacity"):
            fleet.release(Placement(servers=(0, 1), counts=(1, 1)))
        # Rejected whole: server 0 could take its GPU back, but keeps
        # its free count.
        assert free_by_server(fleet) == (0, 8)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(servers=(0, 1), counts=(1,)), "one count per server"),
            (dict(servers=(-1,), counts=(1,)), "non-negative"),
            (dict(servers=(1, 0), counts=(1, 1)), "ascending"),
            (dict(servers=(2, 2), counts=(1, 1)), "ascending"),
            (dict(servers=(0, 1), counts=(1, 0)), "positive"),
            (dict(servers=(0,), counts=(-2,)), "positive"),
            (dict(gpus_by_server=(2, -1)), "positive"),
            (
                dict(servers=(0,), counts=(1,), gpus_by_server=(1,)),
                "not both",
            ),
        ],
    )
    def test_placement_rejects_malformed_fields(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Placement(**fields)

    def test_dense_counts_normalize_to_sparse_fields(self):
        placement = Placement(gpus_by_server=(0, 3, 0, 1))
        assert placement == Placement(servers=(1, 3), counts=(3, 1))
        assert not hasattr(placement, "gpus_by_server")


class TestPlacementShapes:
    def test_local_gang_on_one_server(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        placement = fleet.try_place(Architecture.ALLREDUCE_LOCAL, 6)
        assert (placement.servers, placement.counts) == ((0,), (6,))
        assert len(placement.servers) == 1

    def test_local_gang_first_fit_skips_fragmented_servers(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        placement = fleet.try_place(Architecture.ALLREDUCE_LOCAL, 6)
        assert (placement.servers, placement.counts) == ((1,), (6,))

    def test_local_gang_blocked_by_fragmentation(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        # Six GPUs free in total, but only 3 + 3 per server.
        assert fleet.free_gpus == 6
        assert fleet.try_place(Architecture.ALLREDUCE_LOCAL, 6) is None

    def test_ps_spreads_one_per_server(self):
        fleet = Fleet(num_servers=4, gpus_per_server=8)
        placement = fleet.try_place(Architecture.PS_WORKER, 3)
        assert (placement.servers, placement.counts) == ((0, 1, 2), (1, 1, 1))

    def test_ps_wider_than_fleet_fails(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        assert fleet.try_place(Architecture.PS_WORKER, 3) is None

    def test_packed_fills_greedily(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        placement = fleet.try_place(Architecture.ALLREDUCE_CLUSTER, 10)
        assert (placement.servers, placement.counts) == ((0, 1), (8, 2))

    def test_placement_total(self):
        fleet = Fleet(num_servers=3, gpus_per_server=8)
        placement = fleet.try_place(Architecture.PEARL, 12)
        assert placement.total_gpus == 12


class TestAccounting:
    def test_release_restores_capacity(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        placement = fleet.try_place(Architecture.ALLREDUCE_CLUSTER, 10)
        assert fleet.busy_gpus == 10
        fleet.release(placement)
        assert fleet.busy_gpus == 0
        assert free_by_server(fleet) == (8, 8)

    def test_fits_does_not_mutate(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        assert fleet.fits(Architecture.ALLREDUCE_LOCAL, 8)
        assert fleet.free_gpus == 16

    def test_clone_is_independent(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        clone = fleet.clone()
        clone.try_place(Architecture.SINGLE, 1)
        assert fleet.free_gpus == 16
        assert clone.free_gpus == 15

    def test_fragmentation(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        assert fleet.fragmentation() == pytest.approx(0.5)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        # 3 + 3 free, largest block 3.
        assert fleet.fragmentation() == pytest.approx(0.5)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 3)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 3)
        assert fleet.fragmentation() == 0.0

    def test_utilization(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        fleet.try_place(Architecture.ALLREDUCE_CLUSTER, 4)
        assert fleet.utilization() == pytest.approx(0.25)


class TestReleasesToFit:
    """How many running jobs a blocked job waits for, without a clone."""

    def test_each_shape_waits_for_its_own_test(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        first = fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        second = fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        order = [second, first]
        # 3 + 3 free: a 6-GPU gang needs one server to empty, a 9-GPU
        # gang never fits one server, a 9-GPU fill needs 9 free.
        assert fleet.releases_to_fit(Architecture.ALLREDUCE_LOCAL, 6, order) == 1
        assert fleet.releases_to_fit(Architecture.ALLREDUCE_LOCAL, 9, order) is None
        assert fleet.releases_to_fit(Architecture.ALLREDUCE_CLUSTER, 9, order) == 1
        assert fleet.releases_to_fit(Architecture.PS_WORKER, 2, order) == 1
        assert free_by_server(fleet) == (3, 3)

    def test_tested_only_after_a_release(self):
        # The job is tested only after a release: one that fits now
        # still counts the first, and nothing to release gives None.
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        held = fleet.try_place(Architecture.SINGLE, 1)
        assert fleet.releases_to_fit(Architecture.SINGLE, 1, [held]) == 1
        assert fleet.releases_to_fit(Architecture.SINGLE, 1, []) is None

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Fleet(num_servers=2).releases_to_fit(Architecture.SINGLE, 0, [])

    def test_rejects_what_release_rejects(self):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        held = fleet.try_place(Architecture.ALLREDUCE_LOCAL, 8)
        foreign = Placement(servers=(2,), counts=(1,))
        # 17 GPUs never fit 16, so the scan reaches the bad placement.
        wide = Architecture.ALLREDUCE_CLUSTER, 17
        with pytest.raises(ValueError, match="geometry"):
            fleet.releases_to_fit(*wide, [held, foreign])
        with pytest.raises(ValueError, match="capacity"):
            fleet.releases_to_fit(*wide, [held, held])
        assert free_by_server(fleet) == (0, 8)


class TestCanEverPlace:
    def test_local_bounded_by_server(self):
        fleet = Fleet(num_servers=4, gpus_per_server=8)
        assert fleet.can_ever_place(Architecture.ALLREDUCE_LOCAL, 8)
        assert not fleet.can_ever_place(Architecture.ALLREDUCE_LOCAL, 9)

    def test_ps_bounded_by_servers(self):
        fleet = Fleet(num_servers=4, gpus_per_server=8)
        assert fleet.can_ever_place(Architecture.PS_WORKER, 4)
        assert not fleet.can_ever_place(Architecture.PS_WORKER, 5)

    def test_packed_bounded_by_total(self):
        fleet = Fleet(num_servers=4, gpus_per_server=8)
        assert fleet.can_ever_place(Architecture.ALLREDUCE_CLUSTER, 32)
        assert not fleet.can_ever_place(Architecture.ALLREDUCE_CLUSTER, 33)


class TestByteFleet:
    """Free counts are one byte per server."""

    def test_a_full_255_gpu_server_places_and_releases(self):
        fleet = Fleet(3, 255)
        local = fleet.try_place(Architecture.ALLREDUCE_LOCAL, 255)
        assert (local.servers, local.counts) == ((0,), (255,))
        assert fleet.try_place(Architecture.ALLREDUCE_LOCAL, 255).servers == (1,)
        packed = fleet.try_place(Architecture.ALLREDUCE_CLUSTER, 255)
        assert (packed.servers, packed.counts) == ((2,), (255,))
        assert free_by_server(fleet) == (0, 0, 0)
        assert fleet.try_place(Architecture.SINGLE, 1) is None
        fleet.release(local)
        assert free_by_server(fleet) == (255, 0, 0)
        assert fleet.largest_free_block == 255
        with pytest.raises(ValueError, match="capacity"):
            fleet.release(local)
        assert free_by_server(fleet) == (255, 0, 0)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda fleet: pickle.loads(pickle.dumps(fleet))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_places_apart_from_its_source(self, duplicate):
        fleet = Fleet(num_servers=2, gpus_per_server=8)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 5)
        twin = duplicate(fleet)
        assert free_by_server(twin) == (3, 8)
        assert twin.try_place(Architecture.ALLREDUCE_LOCAL, 8).servers == (1,)
        assert free_by_server(fleet) == (3, 8)
        assert fleet.try_place(Architecture.ALLREDUCE_LOCAL, 3).servers == (0,)
        assert free_by_server(twin) == (3, 0)
        assert (fleet.free_gpus, twin.free_gpus) == (8, 3)

    @pytest.mark.parametrize(
        "architecture, width",
        [
            (Architecture.SINGLE, 1),
            (Architecture.ALLREDUCE_LOCAL, 4),
            (Architecture.PS_WORKER, 3),
            (Architecture.ALLREDUCE_CLUSTER, 11),
        ],
    )
    def test_placement_entries_are_python_ints(self, architecture, width):
        fleet = Fleet(num_servers=4, gpus_per_server=8)
        fleet.try_place(Architecture.ALLREDUCE_LOCAL, 3)
        placement = fleet.try_place(architecture, width)
        assert placement.total_gpus == width
        for entry in placement.servers + placement.counts:
            assert type(entry) is int
