"""Channels and devices: FIFO contention, launch overhead."""

import pytest

from repro.sim.resources import Channel, Device


class TestChannel:
    def test_transfer_duration(self):
        channel = Channel("pcie", bandwidth=10e9, efficiency=1.0)
        assert channel.transfer_duration(10e9) == pytest.approx(1.0)

    def test_efficiency_slows_transfers(self):
        channel = Channel("pcie", bandwidth=10e9, efficiency=0.5)
        assert channel.transfer_duration(10e9) == pytest.approx(2.0)

    def test_fifo_contention(self):
        """Two simultaneous requests serialize -- the PCIe input effect."""
        channel = Channel("pcie", bandwidth=1e9, efficiency=1.0)
        first = channel.reserve(0.0, 1e9, "gpu0/input", "input")
        second = channel.reserve(0.0, 1e9, "gpu1/input", "input")
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_no_contention_when_spaced(self):
        channel = Channel("pcie", bandwidth=1e9, efficiency=1.0)
        channel.reserve(0.0, 1e9, "a", "input")
        late = channel.reserve(5.0, 1e9, "b", "input")
        assert late == pytest.approx(6.0)

    def test_records_kept(self):
        channel = Channel("pcie", bandwidth=1e9, efficiency=1.0)
        channel.reserve(0.0, 1e9, "a", "input")
        assert len(channel.records) == 1
        assert channel.records[0].volume == 1e9

    def test_reset(self):
        channel = Channel("pcie", bandwidth=1e9, efficiency=1.0)
        channel.reserve(0.0, 1e9, "a", "input")
        channel.reset()
        assert channel.records == []
        assert channel.reserve(0.0, 1e9, "b", "input") == pytest.approx(1.0)

    def test_latency_applies_per_transfer(self):
        channel = Channel("pcie", bandwidth=1e9, latency=0.5, efficiency=1.0)
        assert channel.reserve(0.0, 1e9, "a", "input") == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Channel("bad", bandwidth=0)
        with pytest.raises(ValueError):
            Channel("bad", bandwidth=1e9, efficiency=1.5)
        channel = Channel("ok", bandwidth=1e9)
        with pytest.raises(ValueError):
            channel.transfer_duration(-1)


class TestDevice:
    def make(self, **kw):
        defaults = dict(
            name="gpu0",
            peak_flops=1e12,
            memory_bandwidth=1e12,
            compute_efficiency=1.0,
            memory_efficiency=1.0,
            launch_overhead=0.0,
        )
        defaults.update(kw)
        return Device(**defaults)

    def test_serial_execution(self):
        gpu = self.make()
        first = gpu.run_kernel(0.0, "a", 1.0, "compute")
        second = gpu.run_kernel(0.0, "b", 1.0, "compute")
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_launch_overhead_recorded_separately(self):
        gpu = self.make(launch_overhead=0.25)
        end = gpu.run_kernel(0.0, "a", 1.0, "compute")
        assert end == pytest.approx(1.25)
        categories = [r.category for r in gpu.records]
        assert categories == ["overhead", "compute"]

    def test_overhead_override(self):
        gpu = self.make(launch_overhead=0.25)
        end = gpu.run_kernel(0.0, "a", 1.0, "compute", overhead=0.5)
        assert end == pytest.approx(1.5)

    def test_reset(self):
        gpu = self.make()
        gpu.run_kernel(0.0, "a", 1.0, "compute")
        gpu.reset()
        assert gpu.records == []
        # Free from time zero again: the next kernel does not queue.
        assert gpu.run_kernel(0.0, "b", 1.0, "compute") == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(peak_flops=0)
        with pytest.raises(ValueError):
            self.make(compute_efficiency=0.0)
        with pytest.raises(ValueError):
            self.make(launch_overhead=-1.0)
        gpu = self.make()
        with pytest.raises(ValueError):
            gpu.run_kernel(0.0, "a", -1.0, "compute")
