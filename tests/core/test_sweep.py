"""Hardware sweeps (Fig. 11 machinery)."""

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.core.hardware import TABLE_III_VARIATIONS
from repro.core.sweep import sweep_all_resources, sweep_resource
from repro.core.units import gbps, teraflops


def population(n=10):
    return [
        WorkloadFeatures(
            name=f"job-{i}",
            architecture=Architecture.PS_WORKER,
            num_cnodes=8,
            batch_size=64,
            flop_count=(i + 1) * 1e11,
            memory_access_bytes=(i + 1) * 1e9,
            input_bytes=1e6,
            weight_traffic_bytes=(i + 1) * 50e6,
            dense_weight_bytes=(i + 1) * 50e6,
        )
        for i in range(n)
    ]


def best_speedup(series):
    return max(point.average_speedup for point in series.points)


def speedup_at(series, normalized_value):
    (point,) = [
        point
        for point in series.points
        if abs(point.normalized_value - normalized_value) < 1e-9
    ]
    return point.average_speedup


class TestSweepResource:
    def test_points_sorted_by_value(self, hardware):
        series = sweep_resource(
            population(), "ethernet", [gbps(100), gbps(10), gbps(25)], hardware
        )
        values = [p.value for p in series.points]
        assert values == sorted(values)

    def test_baseline_speedup_is_one(self, hardware):
        series = sweep_resource(population(), "ethernet", [gbps(25)], hardware)
        assert series.points[0].average_speedup == pytest.approx(1.0)

    def test_downgrade_slows_down(self, hardware):
        series = sweep_resource(population(), "ethernet", [gbps(10)], hardware)
        assert series.points[0].average_speedup < 1.0

    def test_upgrade_speeds_up(self, hardware):
        series = sweep_resource(population(), "ethernet", [gbps(100)], hardware)
        assert series.points[0].average_speedup > 1.0

    def test_speedups_per_job_recorded(self, hardware):
        series = sweep_resource(population(5), "ethernet", [gbps(100)], hardware)
        assert len(series.points[0].speedups) == 5

    def test_monotone_in_bandwidth(self, hardware):
        series = sweep_resource(
            population(), "ethernet", list(TABLE_III_VARIATIONS.ethernet), hardware
        )
        speedups = [p.average_speedup for p in series.points]
        assert speedups == sorted(speedups)

    def test_empty_population_rejected(self, hardware):
        with pytest.raises(ValueError):
            sweep_resource([], "ethernet", [gbps(100)], hardware)


class TestSweepAllResources:
    def test_covers_table3(self, hardware):
        results = sweep_all_resources(population(), hardware)
        assert set(results) == {"ethernet", "pcie", "gpu_flops", "gpu_memory"}
        assert len(results["gpu_flops"].points) == 4

    def test_ps_worker_most_sensitive_to_ethernet(self, hardware):
        # The Fig. 11(c) observation, on a comm-heavy toy population.
        results = sweep_all_resources(population(), hardware)
        best = max(results.values(), key=best_speedup)
        assert best.resource == "ethernet"

    def test_gpu_upgrade_speedup_bounded_by_compute_share(self, hardware):
        results = sweep_all_resources(population(), hardware)
        series = results["gpu_flops"]
        # 64 TFLOPs is ~5.8x normalized but compute is a minor share.
        assert speedup_at(series, teraflops(64) / teraflops(11)) < 1.5
