"""The Sec. II-B analytical model: Eq. 1, media paths, Eq. 3, overlap."""

import dataclasses

import pytest

from repro.core.architectures import Architecture
from repro.core.efficiency import EfficiencyModel
from repro.core.features import WorkloadFeatures
from repro.core.hardware import (
    pai_default_hardware,
    testbed_v100_hardware as v100_hardware,
)
from repro.core.projection import projection_speedups
from repro.core.timemodel import (
    ModelOptions,
    OverlapMode,
    PAPER_MODEL_OPTIONS,
    TimeBreakdown,
    estimate_breakdown,
    estimate_step_time,
    ring_allreduce_factor,
    weight_traffic_times,
)
from repro.trace import features_of_type


def features_for(architecture, **overrides):
    defaults = dict(
        name="job",
        architecture=architecture,
        num_cnodes=1 if architecture is Architecture.SINGLE else 8,
        batch_size=64,
        flop_count=1.05e12,  # 0.1 s at 15 TFLOPs * 0.7
        memory_access_bytes=6.3e9,  # 0.01 s at 0.9 TB/s * 0.7
        input_bytes=7e6,  # 1 ms at 10 GB/s * 0.7 (no contention)
        weight_traffic_bytes=0.0
        if architecture is Architecture.SINGLE
        else 350e6,
        dense_weight_bytes=350e6,
    )
    defaults.update(overrides)
    return WorkloadFeatures(**defaults)


class TestEquationOne:
    """T_c = FLOPs / (peak * eff) + S_mem / (B_mem * eff)."""

    def test_resnet50_example_from_paper(self):
        # Sec. IV-B: 1.56T / (15T * 70%) = 0.149 s.
        hardware = v100_hardware()
        features = features_for(
            Architecture.SINGLE,
            num_cnodes=1,
            flop_count=1.56e12,
            memory_access_bytes=0.0,
        )
        breakdown = estimate_breakdown(features, hardware)
        assert breakdown.compute_flops == pytest.approx(0.1486, abs=1e-3)

    def test_memory_bound_term(self, hardware):
        features = features_for(
            Architecture.SINGLE,
            num_cnodes=1,
            flop_count=0.0,
            memory_access_bytes=0.7e12,
        )
        breakdown = estimate_breakdown(features, hardware)
        assert breakdown.compute_memory == pytest.approx(1.0)

    def test_terms_add(self, hardware):
        features = features_for(Architecture.SINGLE, num_cnodes=1)
        breakdown = estimate_breakdown(features, hardware)
        assert breakdown.computation == pytest.approx(
            breakdown.compute_flops + breakdown.compute_memory
        )


class TestWeightPath:
    """T_w follows the Table II media of each architecture."""

    def test_1w1g_no_weight_time(self, hardware):
        breakdown = estimate_breakdown(
            features_for(Architecture.SINGLE, num_cnodes=1), hardware
        )
        assert breakdown.weight_total == 0.0

    def test_1wng_pcie_only(self, hardware):
        times = weight_traffic_times(
            features_for(Architecture.LOCAL_CENTRALIZED), hardware
        )
        assert set(times) == {"PCIe"}
        assert times["PCIe"] == pytest.approx(350e6 / (10e9 * 0.7))

    def test_ps_worker_serializes_two_hops(self, hardware):
        times = weight_traffic_times(
            features_for(Architecture.PS_WORKER, num_cnodes=16), hardware
        )
        assert set(times) == {"Ethernet", "PCIe"}
        assert times["Ethernet"] == pytest.approx(350e6 / (3.125e9 * 0.7))
        assert times["PCIe"] == pytest.approx(350e6 / (10e9 * 0.7))

    def test_allreduce_local_nvlink(self, hardware):
        times = weight_traffic_times(
            features_for(Architecture.ALLREDUCE_LOCAL), hardware
        )
        assert set(times) == {"NVLink"}

    def test_eq3_exact_21x(self, hardware):
        """The weight-bound PS -> AllReduce-Local speedup is exactly 21."""
        ps = features_for(Architecture.PS_WORKER, num_cnodes=16)
        local = ps.with_architecture(Architecture.ALLREDUCE_LOCAL, num_cnodes=8)
        tw_ps = sum(weight_traffic_times(ps, hardware).values())
        tw_local = sum(weight_traffic_times(local, hardware).values())
        assert tw_ps / tw_local == pytest.approx(21.0)

    def test_cluster_speedup_at_most_1_2x(self, hardware):
        """Sec. III-C1: Ethernet still dominates; at most ~1.2x."""
        ps = features_for(Architecture.PS_WORKER, num_cnodes=16)
        cluster = ps.with_architecture(Architecture.ALLREDUCE_CLUSTER)
        tw_ps = sum(weight_traffic_times(ps, hardware).values())
        tw_cluster = sum(weight_traffic_times(cluster, hardware).values())
        assert tw_ps / tw_cluster == pytest.approx(1.235, abs=0.01)


class TestInputContention:
    def test_ps_worker_no_contention(self, hardware):
        breakdown = estimate_breakdown(
            features_for(Architecture.PS_WORKER, num_cnodes=16), hardware
        )
        assert breakdown.data_io == pytest.approx(1e-3)

    def test_allreduce_local_contends(self, hardware):
        breakdown = estimate_breakdown(
            features_for(Architecture.ALLREDUCE_LOCAL, num_cnodes=8), hardware
        )
        assert breakdown.data_io == pytest.approx(8e-3)

    def test_contention_scales_with_local_gpus(self, hardware):
        four = estimate_breakdown(
            features_for(Architecture.ALLREDUCE_LOCAL, num_cnodes=4), hardware
        )
        eight = estimate_breakdown(
            features_for(Architecture.ALLREDUCE_LOCAL, num_cnodes=8), hardware
        )
        assert eight.data_io == pytest.approx(2 * four.data_io)

    def test_cluster_contention_caps_at_8(self, hardware):
        breakdown = estimate_breakdown(
            features_for(Architecture.ALLREDUCE_CLUSTER, num_cnodes=32),
            hardware,
        )
        assert breakdown.data_io == pytest.approx(8e-3)

    def test_contention_can_be_disabled(self, hardware):
        options = dataclasses.replace(
            PAPER_MODEL_OPTIONS, input_pcie_contention=False
        )
        breakdown = estimate_breakdown(
            features_for(Architecture.ALLREDUCE_LOCAL, num_cnodes=8),
            hardware,
            options=options,
        )
        assert breakdown.data_io == pytest.approx(1e-3)


class TestOverlap:
    def test_non_overlap_sums(self, hardware):
        features = features_for(Architecture.PS_WORKER, num_cnodes=16)
        breakdown = estimate_breakdown(features, hardware)
        assert breakdown.total == pytest.approx(
            breakdown.data_io + breakdown.computation + breakdown.weight_total
        )

    def test_ideal_overlap_takes_max(self, hardware):
        features = features_for(Architecture.PS_WORKER, num_cnodes=16)
        breakdown = estimate_breakdown(features, hardware)
        assert breakdown.total_ideal_overlap == pytest.approx(
            max(
                breakdown.data_io,
                breakdown.computation,
                breakdown.weight_total,
            )
        )

    def test_overlap_mode_selects_total(self, hardware):
        features = features_for(Architecture.PS_WORKER, num_cnodes=16)
        ideal = dataclasses.replace(
            PAPER_MODEL_OPTIONS, overlap=OverlapMode.IDEAL
        )
        assert estimate_step_time(
            features, hardware, options=ideal
        ) <= estimate_step_time(features, hardware)


class TestTimeBreakdown:
    def test_fractions_sum_to_one(self, hardware):
        breakdown = estimate_breakdown(
            features_for(Architecture.PS_WORKER, num_cnodes=16), hardware
        )
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_zero_breakdown_fractions(self):
        empty = TimeBreakdown(0.0, 0.0, 0.0, {})
        assert all(v == 0.0 for v in empty.fractions().values())
        assert all(v == 0.0 for v in empty.hardware_shares().values())

    def test_hardware_shares_sum_to_one(self, hardware):
        breakdown = estimate_breakdown(
            features_for(Architecture.PS_WORKER, num_cnodes=16), hardware
        )
        assert sum(breakdown.hardware_shares().values()) == pytest.approx(1.0)

    def test_ps_pcie_share_includes_input_and_weights(self, hardware):
        breakdown = estimate_breakdown(
            features_for(Architecture.PS_WORKER, num_cnodes=16), hardware
        )
        shares = breakdown.hardware_shares()
        expected = (
            breakdown.data_io + breakdown.weight_comm["PCIe"]
        ) / breakdown.total
        assert shares["PCIe"] == pytest.approx(expected)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            TimeBreakdown(-1.0, 0.0, 0.0, {})
        with pytest.raises(ValueError):
            TimeBreakdown(0.0, 0.0, 0.0, {"PCIe": -1.0})

    def test_scaled(self):
        breakdown = TimeBreakdown(1.0, 2.0, 3.0, {"PCIe": 4.0})
        doubled = breakdown.scaled(2.0)
        assert doubled.total == pytest.approx(2 * breakdown.total)


class TestTrafficShaping:
    def test_ring_factor(self):
        assert ring_allreduce_factor(1) == 0.0
        assert ring_allreduce_factor(2) == pytest.approx(0.5)
        assert ring_allreduce_factor(8) == pytest.approx(7 / 8)

    def test_ring_factor_rejects_zero(self):
        with pytest.raises(ValueError):
            ring_allreduce_factor(0)

    def test_ring_option_shrinks_allreduce_traffic(self, hardware):
        features = features_for(Architecture.ALLREDUCE_LOCAL, num_cnodes=8)
        plain = weight_traffic_times(features, hardware)["NVLink"]
        ringed = weight_traffic_times(
            features,
            hardware,
            options=dataclasses.replace(
                PAPER_MODEL_OPTIONS, allreduce_ring_factor=True
            ),
        )["NVLink"]
        assert ringed == pytest.approx(plain * 7 / 8)

    def test_pearl_partition_parallelism(self, hardware):
        features = features_for(
            Architecture.PEARL,
            num_cnodes=8,
            weight_traffic_bytes=900e6,
            embedding_traffic_bytes=800e6,
        )
        times = weight_traffic_times(features, hardware)
        # dense 100 MB + 800/8 MB sparse = 200 MB effective.
        assert times["NVLink"] == pytest.approx(200e6 / (50e9 * 0.7))

    def test_pearl_parallelism_can_be_disabled(self, hardware):
        features = features_for(
            Architecture.PEARL,
            num_cnodes=8,
            weight_traffic_bytes=900e6,
            embedding_traffic_bytes=800e6,
        )
        options = dataclasses.replace(
            PAPER_MODEL_OPTIONS, pearl_partition_parallelism=False
        )
        times = weight_traffic_times(features, hardware, options=options)
        assert times["NVLink"] == pytest.approx(900e6 / (50e9 * 0.7))


class TestEfficiencyScaling:
    def test_full_efficiency_is_faster(self, hardware):
        features = features_for(Architecture.PS_WORKER, num_cnodes=16)
        at_70 = estimate_step_time(features, hardware)
        full = EfficiencyModel(compute=1.0, memory=1.0, pcie=1.0, network=1.0)
        at_100 = estimate_step_time(features, hardware, full)
        assert at_100 == pytest.approx(at_70 * 0.7)

    def test_component_efficiency_targets_one_term(self, hardware):
        features = features_for(Architecture.PS_WORKER, num_cnodes=16)
        slow_memory = EfficiencyModel(memory=0.35)
        base = estimate_breakdown(features, hardware)
        slowed = estimate_breakdown(features, hardware, slow_memory)
        assert slowed.compute_memory == pytest.approx(2 * base.compute_memory)
        assert slowed.compute_flops == pytest.approx(base.compute_flops)


def _not_sped_up(population, hardware, options):
    """Fig. 9's single-cNode "not sped up" share under ``options``."""
    speedups = [
        projection_speedups(
            f, Architecture.ALLREDUCE_LOCAL, hardware, options=options
        ).single_cnode_speedup
        for f in population
    ]
    return sum(1 for speedup in speedups if speedup <= 1.0) / len(speedups)


def _total_step_time(population, hardware, options):
    return sum(
        estimate_step_time(f, hardware, options=options) for f in population
    )


class TestAblations:
    """Each :class:`ModelOptions` refinement flipped over the trace's
    PS/Worker jobs: how far the headline conclusions move."""

    def test_input_contention_makes_the_not_sped_up_cohort(
        self, trace, hardware
    ):
        """Without PCIe input contention the not-sped-up cohort vanishes:
        contention is the mechanism behind Fig. 9's 22.6%."""
        population = features_of_type(trace, Architecture.PS_WORKER)[:1500]
        no_contention = dataclasses.replace(
            PAPER_MODEL_OPTIONS, input_pcie_contention=False
        )
        assert _not_sped_up(population, hardware, PAPER_MODEL_OPTIONS) > 0.12
        assert _not_sped_up(population, hardware, no_contention) < 0.02

    def test_ring_factor_shift_is_bounded(self, trace, hardware):
        """The ring 2(n-1)/n factor against the paper's flat S_w/B_w: a
        bounded (< 2x) shift in AllReduce step time."""
        population = [
            f.with_architecture(Architecture.ALLREDUCE_LOCAL, num_cnodes=8)
            for f in features_of_type(trace, Architecture.PS_WORKER)[:1000]
        ]
        ringed = dataclasses.replace(
            PAPER_MODEL_OPTIONS, allreduce_ring_factor=True
        )
        flat = _total_step_time(population, hardware, PAPER_MODEL_OPTIONS)
        with_ring = _total_step_time(population, hardware, ringed)
        assert with_ring <= flat  # (n-1)/n < 1 shrinks traffic
        assert with_ring > 0.5 * flat

    def test_ideal_overlap_shrinks_totals_at_most_3x(self, trace, hardware):
        """Sum against max composition over three terms."""
        population = features_of_type(trace, Architecture.PS_WORKER)[:1000]
        ideal = dataclasses.replace(
            PAPER_MODEL_OPTIONS, overlap=OverlapMode.IDEAL
        )
        non_overlap = _total_step_time(
            population, hardware, PAPER_MODEL_OPTIONS
        )
        overlapped = _total_step_time(population, hardware, ideal)
        assert non_overlap / 3 <= overlapped <= non_overlap
