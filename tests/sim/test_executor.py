"""The training-step executor across all architectures."""

import pytest

from repro.core.architectures import Architecture
from repro.core.efficiency import TABLE_VI_EFFICIENCIES, uniform_efficiency
from repro.graphs import Deployment, build_resnet50
from repro.sim.executor import SimulationOptions, TestbedSimulator, simulate_step


@pytest.fixture(scope="module")
def resnet():
    return build_resnet50()


class TestPhases:
    def test_single_gpu_step(self, resnet, testbed):
        measurement = simulate_step(
            resnet, Deployment(Architecture.SINGLE, 1), testbed
        )
        assert measurement.step_time > 0
        assert measurement.weight_time == 0.0
        assert measurement.data_io_time > 0
        assert measurement.compute_time > 0
        assert measurement.memory_time > 0

    def test_allreduce_local_syncs_on_nvlink(self, resnet, testbed):
        measurement = simulate_step(
            resnet, Deployment(Architecture.ALLREDUCE_LOCAL, 8), testbed
        )
        assert set(measurement.weight_times()) == {"NVLink"}

    def test_ps_worker_syncs_on_ethernet_and_pcie(self, resnet, testbed):
        measurement = simulate_step(
            resnet, Deployment(Architecture.PS_WORKER, 4), testbed
        )
        assert set(measurement.weight_times()) == {"Ethernet", "PCIe"}

    def test_1wng_syncs_on_pcie(self, resnet, testbed):
        measurement = simulate_step(
            resnet, Deployment(Architecture.LOCAL_CENTRALIZED, 4), testbed
        )
        assert set(measurement.weight_times()) == {"PCIe"}

    def test_cluster_allreduce_uses_ethernet(self, resnet, testbed):
        measurement = simulate_step(
            resnet, Deployment(Architecture.ALLREDUCE_CLUSTER, 16), testbed
        )
        assert "Ethernet" in measurement.weight_times()


class TestContention:
    def test_input_contention_grows_with_local_gpus(self, resnet, testbed):
        one = simulate_step(resnet, Deployment(Architecture.SINGLE, 1), testbed)
        eight = simulate_step(
            resnet, Deployment(Architecture.ALLREDUCE_LOCAL, 8), testbed
        )
        # Average queue position is (n+1)/2, so ~4.5x the solo latency.
        assert eight.data_io_time > 3 * one.data_io_time

    def test_ps_workers_do_not_contend(self, resnet, testbed):
        one = simulate_step(resnet, Deployment(Architecture.SINGLE, 1), testbed)
        ps = simulate_step(resnet, Deployment(Architecture.PS_WORKER, 8), testbed)
        assert ps.data_io_time == pytest.approx(one.data_io_time, rel=0.01)


class TestEfficiencyEffects:
    def test_lower_efficiency_is_slower(self, resnet, testbed):
        fast = simulate_step(
            resnet,
            Deployment(Architecture.SINGLE, 1),
            testbed,
            uniform_efficiency(0.9),
        )
        slow = simulate_step(
            resnet,
            Deployment(Architecture.SINGLE, 1),
            testbed,
            uniform_efficiency(0.3),
        )
        assert slow.step_time > fast.step_time

    def test_table_vi_speech_memory_collapse(self, testbed):
        from repro.graphs import build_speech

        speech = build_speech()
        deployment = Deployment(Architecture.SINGLE, 1)
        nominal = simulate_step(
            speech, deployment, testbed, uniform_efficiency(0.7)
        )
        measured = simulate_step(
            speech, deployment, testbed, TABLE_VI_EFFICIENCIES["Speech"]
        )
        # 3.1% GDDR efficiency vs 70%: memory time explodes ~22x.
        assert measured.memory_time > 15 * nominal.memory_time
        # The efficiency scheme alone makes Speech Fig. 12's outlier.
        assert measured.serial_total > 1.5 * nominal.serial_total


class TestOverheads:
    def test_more_kernels_per_op_means_more_overhead(self, resnet, testbed):
        lean = simulate_step(
            resnet,
            Deployment(Architecture.SINGLE, 1),
            testbed,
            options=SimulationOptions(kernels_per_op=1.0),
        )
        heavy = simulate_step(
            resnet,
            Deployment(Architecture.SINGLE, 1),
            testbed,
            options=SimulationOptions(kernels_per_op=100.0),
        )
        assert heavy.overhead_time > 10 * lean.overhead_time

    def test_serial_total_includes_overhead(self, resnet, testbed):
        measurement = simulate_step(
            resnet, Deployment(Architecture.SINGLE, 1), testbed
        )
        parts = (
            measurement.data_io_time
            + measurement.compute_time
            + measurement.memory_time
            + measurement.weight_time
        )
        assert measurement.serial_total == pytest.approx(
            parts + measurement.overhead_time
        )


class TestMixedPrecisionOption:
    def test_executor_level_mp_speeds_matmuls(self, resnet, testbed):
        deployment = Deployment(Architecture.SINGLE, 1)
        base = simulate_step(resnet, deployment, testbed)
        mp = simulate_step(
            resnet,
            deployment,
            testbed,
            options=SimulationOptions(mixed_precision=True),
        )
        assert base.compute_time / mp.compute_time == pytest.approx(2.8, rel=0.01)


class TestDefaults:
    def test_simulator_defaults_to_testbed(self, resnet):
        simulator = TestbedSimulator()
        measurement = simulator.run_step(
            resnet, Deployment(Architecture.SINGLE, 1)
        )
        assert measurement.step_time > 0

    def test_more_cnodes_more_records(self, resnet, testbed):
        two = simulate_step(
            resnet, Deployment(Architecture.ALLREDUCE_LOCAL, 2), testbed
        )
        eight = simulate_step(
            resnet, Deployment(Architecture.ALLREDUCE_LOCAL, 8), testbed
        )
        assert len(eight.records) > len(two.records)
