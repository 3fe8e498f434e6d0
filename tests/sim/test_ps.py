"""Parameter-server provisioning."""

import pytest

from repro.sim.ps import (
    PsProvisioning,
    ps_scaling_curve,
    ps_sync_time,
    recommended_ps_count,
)


class TestProvisioning:
    def test_load_factor(self):
        assert PsProvisioning(16, 4).ps_load_factor == 4.0
        assert PsProvisioning(16, 16).ps_load_factor == 1.0

    def test_ps_bound(self):
        assert PsProvisioning(16, 4).ps_bound
        assert not PsProvisioning(16, 16).ps_bound
        assert not PsProvisioning(8, 16).ps_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            PsProvisioning(0, 1)
        with pytest.raises(ValueError):
            PsProvisioning(1, 0)


class TestSyncTime:
    def test_well_provisioned_matches_paper_model(self, hardware):
        """With p >= w the explicit PS model reduces to S_w on
        Ethernet + PCIe -- exactly the Sec. II-B charge."""
        traffic = 700e6
        time = ps_sync_time(traffic, PsProvisioning(8, 8), hardware)
        expected = traffic / (3.125e9 * 0.7) + traffic / (10e9 * 0.7)
        assert time == pytest.approx(expected)

    def test_underprovisioned_fleet_throttles(self, hardware):
        traffic = 700e6
        healthy = ps_sync_time(traffic, PsProvisioning(32, 32), hardware)
        starved = ps_sync_time(traffic, PsProvisioning(32, 4), hardware)
        assert starved > 4 * healthy * 0.5  # the wire part scales 8x

    def test_monotone_in_ps_count(self, hardware):
        traffic = 1e9
        times = [
            ps_sync_time(traffic, PsProvisioning(64, p), hardware)
            for p in (1, 2, 8, 32, 64)
        ]
        assert times == sorted(times, reverse=True)

    def test_overprovisioning_does_not_help(self, hardware):
        traffic = 1e9
        at_w = ps_sync_time(traffic, PsProvisioning(16, 16), hardware)
        at_2w = ps_sync_time(traffic, PsProvisioning(16, 32), hardware)
        assert at_2w == pytest.approx(at_w)

    def test_rejects_negative_traffic(self, hardware):
        with pytest.raises(ValueError):
            ps_sync_time(-1.0, PsProvisioning(2, 2), hardware)


class TestRecommendation:
    def test_one_ps_shard_per_worker(self):
        assert recommended_ps_count(32) == 32

    def test_recommended_count_is_sufficient(self, hardware):
        traffic = 1e9
        workers = 24
        recommended = recommended_ps_count(workers)
        at_recommended = ps_sync_time(
            traffic, PsProvisioning(workers, recommended), hardware
        )
        at_plenty = ps_sync_time(
            traffic, PsProvisioning(workers, 10 * workers), hardware
        )
        assert at_recommended == pytest.approx(at_plenty)

    def test_validation(self):
        with pytest.raises(ValueError):
            recommended_ps_count(0)


class TestScalingCurve:
    def test_rows_sorted_and_flagged(self, hardware):
        rows = ps_scaling_curve(1e9, 32, hardware, ps_counts=[2, 8, 32])
        assert [row["num_ps"] for row in rows] == [2, 8, 32]
        assert rows[0]["ps_bound"]
        assert not rows[-1]["ps_bound"]

    def test_one_shard_per_worker_removes_the_ps_bottleneck(self, hardware):
        # A GCN-class job: 3 GB of round-trip traffic per worker.
        rows = ps_scaling_curve(3e9, 32, hardware, [1, 2, 4, 8, 16, 32])
        assert rows[0]["sync_time_s"] > 10 * rows[-1]["sync_time_s"]

    def test_default_counts_include_worker_count(self, hardware):
        rows = ps_scaling_curve(1e9, 32, hardware)
        assert any(row["num_ps"] == 32 for row in rows)
