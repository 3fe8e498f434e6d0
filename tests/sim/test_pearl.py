"""PEARL: partitioning, collective schedule, and its Fig. 13(d) win."""

import pytest

from repro.core.architectures import Architecture
from repro.core.efficiency import TABLE_VI_EFFICIENCIES
from repro.graphs import Deployment, build_gcn
from repro.sim.executor import simulate_step
from repro.sim.pearl import pearl_schedule, plan_pearl


@pytest.fixture(scope="module")
def gcn():
    return build_gcn()


class TestPartition:
    def test_shards_evenly(self, gcn):
        partition = plan_pearl(gcn, 8)
        assert partition.shard_bytes == pytest.approx(
            gcn.embedding_weight_bytes / 8
        )

    def test_gcn_fits_only_when_partitioned(self, gcn, testbed):
        capacity = testbed.gpu.memory_capacity
        assert gcn.embedding_weight_bytes > capacity  # replica impossible
        partition = plan_pearl(gcn, 8)
        assert partition.fits_in(capacity)

    def test_single_worker_gets_everything(self, gcn):
        partition = plan_pearl(gcn, 1)
        assert partition.shard_bytes == gcn.embedding_weight_bytes

    def test_rejects_zero_workers(self, gcn):
        with pytest.raises(ValueError):
            plan_pearl(gcn, 0)


class TestSchedule:
    def test_mesh_parallelism(self, gcn):
        # Each worker handles ~1/n of the one-way accessed volume in
        # each phase -- the partitioned-gather parallelism of the
        # analytical model.
        schedule = pearl_schedule(gcn, 8, 50e9, network_efficiency=1.0)
        one_way = gcn.embedding_access_bytes / 2
        assert schedule.gather.volume_per_node == pytest.approx(one_way / 8)
        assert schedule.scatter.volume_per_node == pytest.approx(one_way / 8)

    def test_more_workers_less_time_per_phase(self, gcn):
        two = pearl_schedule(gcn, 2, 50e9)
        eight = pearl_schedule(gcn, 8, 50e9)
        assert eight.gather.seconds < two.gather.seconds


class TestEndToEnd:
    def test_pearl_beats_ps_for_gcn(self, gcn, testbed):
        eff = TABLE_VI_EFFICIENCIES["GCN"]
        pearl = simulate_step(
            gcn, Deployment(Architecture.PEARL, 8), testbed, eff
        )
        ps = simulate_step(
            gcn, Deployment(Architecture.PS_WORKER, 8), testbed, eff
        )
        assert pearl.serial_total < ps.serial_total / 5

    def test_comm_share_shapes_match_fig13d(self, gcn, testbed):
        eff = TABLE_VI_EFFICIENCIES["GCN"]
        pearl = simulate_step(
            gcn, Deployment(Architecture.PEARL, 8), testbed, eff
        )
        ps = simulate_step(
            gcn, Deployment(Architecture.PS_WORKER, 8), testbed, eff
        )
        pearl_share = pearl.weight_time / pearl.serial_total
        ps_share = ps.weight_time / ps.serial_total
        assert 0.15 <= pearl_share <= 0.45  # paper: 25%
        assert ps_share >= 0.90  # paper: ~95%

    def test_pearl_uses_nvlink_only(self, gcn, testbed):
        pearl = simulate_step(
            gcn, Deployment(Architecture.PEARL, 8), testbed
        )
        assert set(pearl.weight_times()) == {"NVLink"}
