"""The per-unit sensitivity metric of sweep series (Fig. 11 ranking)."""

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.core.sweep import SweepPoint, SweepSeries, sweep_resource
from repro.core.units import gbps


def series(points):
    return SweepSeries(
        resource="ethernet",
        points=tuple(
            SweepPoint(
                resource="ethernet",
                value=norm * gbps(25),
                normalized_value=norm,
                average_speedup=speedup,
                speedups=(speedup,),
            )
            for norm, speedup in points
        ),
    )


class TestSensitivity:
    def test_per_unit_slope(self):
        # 1.6x at 4x normalized: (1.6 - 1) / (4 - 1) = 0.2 per unit.
        s = series([(1.0, 1.0), (4.0, 1.6)])
        assert s.sensitivity == pytest.approx(0.2)

    def test_picks_the_best_point(self):
        # A steep early gain beats a flatter later one.
        s = series([(1.0, 1.0), (2.0, 1.5), (4.0, 1.6)])
        assert s.sensitivity == pytest.approx(0.5)

    def test_baseline_only_is_zero(self):
        assert series([(1.0, 1.0)]).sensitivity == 0.0

    def test_downgrades_do_not_count(self):
        s = series([(0.4, 0.6), (1.0, 1.0)])
        assert s.sensitivity == 0.0

    def test_wide_sweep_no_longer_wins_automatically(self):
        # PCIe reaches 5x normalized, GPU memory only 4x -- the raw max
        # favors PCIe even when memory is more valuable per unit.
        pcie = series([(1.0, 1.0), (5.0, 1.5)])
        memory = series([(1.0, 1.0), (4.0, 1.45)])
        best = {
            name: max(p.average_speedup for p in s.points)
            for name, s in (("pcie", pcie), ("memory", memory))
        }
        assert best["pcie"] > best["memory"]
        assert memory.sensitivity > pcie.sensitivity


class TestSensitivityOnRealSweep:
    def test_matches_hand_computation(self, hardware):
        job = WorkloadFeatures(
            name="j",
            architecture=Architecture.PS_WORKER,
            num_cnodes=8,
            batch_size=64,
            flop_count=1e12,
            memory_access_bytes=5e9,
            input_bytes=1e6,
            weight_traffic_bytes=1e9,
            dense_weight_bytes=1e9,
        )
        swept = sweep_resource(
            [job], "ethernet", [gbps(25), gbps(100)], hardware
        )
        point = swept.points[-1]
        expected = (point.average_speedup - 1.0) / (
            point.normalized_value - 1.0
        )
        assert swept.sensitivity == pytest.approx(expected)
