"""Sec. V sensitivity analyses: efficiency shifts and overlap."""

import pytest

from repro.core.architectures import Architecture
from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
from repro.core.features import WorkloadFeatures
from repro.core.sensitivity import (
    FIG15_SCENARIOS,
    compare_overlap_assumptions,
    eq3_weight_bound_speedup,
    weight_share_scenarios,
    weight_share_under_efficiency,
)


def ps_jobs(n=20):
    return [
        WorkloadFeatures(
            name=f"job-{i}",
            architecture=Architecture.PS_WORKER,
            num_cnodes=4 + i,
            batch_size=64,
            flop_count=(i + 1) * 2e11,
            memory_access_bytes=(i + 1) * 2e9,
            input_bytes=(i + 1) * 1e6,
            weight_traffic_bytes=(i + 1) * 80e6,
            dense_weight_bytes=(i + 1) * 80e6,
        )
        for i in range(n)
    ]


class TestEq3:
    def test_exactly_21_under_table1(self, hardware):
        assert eq3_weight_bound_speedup(hardware) == pytest.approx(21.0)

    def test_independent_of_uniform_efficiency(self, hardware):
        from repro.core.efficiency import EfficiencyModel

        half = EfficiencyModel(compute=0.5, memory=0.5, pcie=0.5, network=0.5)
        assert eq3_weight_bound_speedup(hardware, half) == pytest.approx(21.0)

    def test_scales_with_nvlink(self, hardware):
        faster = hardware.with_resource("nvlink", 100e9)
        assert eq3_weight_bound_speedup(faster) == pytest.approx(42.0)


class TestFig15Scenarios:
    def test_four_paper_curves(self):
        names = [scenario.name for scenario in FIG15_SCENARIOS]
        assert names == [
            "All eff. 70%",
            "Communication eff. 50%",
            "Computation eff. 50%",
            "Computation eff. 25%",
        ]

    def test_lower_comm_efficiency_raises_weight_share(self, hardware):
        jobs = ps_jobs()
        base = weight_share_under_efficiency(
            jobs, hardware, PAPER_DEFAULT_EFFICIENCY
        )
        slow_comm = weight_share_under_efficiency(
            jobs, hardware, PAPER_DEFAULT_EFFICIENCY.scaled(communication=50 / 70)
        )
        assert all(s >= b for s, b in zip(slow_comm, base))

    def test_lower_compute_efficiency_lowers_weight_share(self, hardware):
        jobs = ps_jobs()
        base = weight_share_under_efficiency(
            jobs, hardware, PAPER_DEFAULT_EFFICIENCY
        )
        slow_compute = weight_share_under_efficiency(
            jobs, hardware, PAPER_DEFAULT_EFFICIENCY.scaled(compute=25 / 70)
        )
        assert all(s <= b for s, b in zip(slow_compute, base))

    def test_scenarios_keyed_by_name(self, hardware):
        results = weight_share_scenarios(ps_jobs(5), hardware)
        assert set(results) == {s.name for s in FIG15_SCENARIOS}
        assert all(len(v) == 5 for v in results.values())


class TestOverlapComparison:
    def test_populations_match(self, hardware):
        comparison = compare_overlap_assumptions(ps_jobs(12), hardware)
        assert len(comparison.non_overlap_speedups) == 12
        assert len(comparison.ideal_overlap_speedups) == 12

    def test_non_ps_jobs_ignored(self, hardware):
        single = WorkloadFeatures(
            name="s",
            architecture=Architecture.SINGLE,
            num_cnodes=1,
            batch_size=1,
            flop_count=1.0,
            memory_access_bytes=1.0,
            input_bytes=1.0,
            weight_traffic_bytes=0.0,
        )
        comparison = compare_overlap_assumptions(
            ps_jobs(3) + [single], hardware
        )
        assert len(comparison.non_overlap_speedups) == 3

    def test_weight_bound_jobs_pin_at_21x_under_ideal_overlap(self, hardware):
        # Sec. V-B: jobs bound by weight traffic before and after the
        # projection show exactly the Eq. 3 speedup.
        bound = [
            WorkloadFeatures(
                name="wb",
                architecture=Architecture.PS_WORKER,
                num_cnodes=8,
                batch_size=64,
                flop_count=1.0,
                memory_access_bytes=1.0,
                input_bytes=1.0,
                weight_traffic_bytes=10e9,
                dense_weight_bytes=10e9,
            )
        ]
        comparison = compare_overlap_assumptions(bound, hardware)
        assert comparison.ideal_overlap_speedups[0] == pytest.approx(21.0)
        assert comparison.fraction_at_speedup(21.0) == pytest.approx(1.0)

    def test_ideal_overlap_exposes_weight_share(self, hardware):
        comparison = compare_overlap_assumptions(ps_jobs(), hardware)
        # Under max-composition the dominant part's "share" is larger.
        assert sum(comparison.ideal_overlap_weight_shares) >= sum(
            comparison.non_overlap_weight_shares
        )

    def test_not_sped_up_fractions_in_range(self, hardware):
        comparison = compare_overlap_assumptions(ps_jobs(), hardware)
        assert 0.0 <= comparison.non_overlap_not_sped_up <= 1.0
        assert 0.0 <= comparison.ideal_overlap_not_sped_up <= 1.0

    def test_empty_population(self, hardware):
        comparison = compare_overlap_assumptions([], hardware)
        assert comparison.non_overlap_not_sped_up == 0.0
        assert comparison.fraction_at_speedup(21.0) == 0.0
