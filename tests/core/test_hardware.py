"""Hardware specs: Table I defaults, Table III variations, sweeps."""

import dataclasses

import pytest

from repro.core.hardware import (
    GpuSpec,
    HardwareConfig,
    HardwareVariations,
    LinkSpec,
    ServerSpec,
    TABLE_III_VARIATIONS,
    pai_default_hardware,  # noqa: F401 (fixture source)
    testbed_v100_hardware as v100_hardware,
)
from repro.core.units import gbps, gigabytes_per_second, teraflops


class TestTableIDefaults:
    def test_gpu(self, hardware):
        assert hardware.gpu.peak_flops == teraflops(11)
        assert hardware.gpu.memory_bandwidth == 1e12

    def test_links(self, hardware):
        assert hardware.ethernet.bandwidth == gbps(25)
        assert hardware.pcie.bandwidth == 10e9
        assert hardware.nvlink.bandwidth == 50e9

    def test_nvlink_is_fastest_interconnect(self, hardware):
        assert hardware.nvlink.bandwidth > hardware.pcie.bandwidth
        assert hardware.pcie.bandwidth > hardware.ethernet.bandwidth


class TestTestbed:
    def test_v100_specs(self, testbed):
        # Sec. IV-B divides ResNet50's 1.56T by 15 TFLOPs.
        assert testbed.gpu.peak_flops == teraflops(15)
        assert testbed.gpu.tensor_core_flops == teraflops(120)
        assert testbed.server.has_nvlink


class TestValidation:
    def test_gpu_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GpuSpec("bad", peak_flops=0, memory_bandwidth=1e12)
        with pytest.raises(ValueError):
            GpuSpec("bad", peak_flops=1e12, memory_bandwidth=-1)

    def test_link_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", bandwidth=0)

    def test_link_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", bandwidth=1e9, latency=-1e-6)

    def test_server_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            ServerSpec(gpus_per_server=0)


class TestBandwidthOf:
    @pytest.mark.parametrize(
        "medium,attr",
        [
            ("Ethernet", "ethernet"),
            ("PCIe", "pcie"),
            ("NVLink", "nvlink"),
        ],
    )
    def test_media(self, hardware, medium, attr):
        assert hardware.bandwidth_of(medium) == getattr(hardware, attr).bandwidth

    def test_gpu_memory(self, hardware):
        assert hardware.bandwidth_of("GPUMemory") == hardware.gpu.memory_bandwidth

    def test_case_insensitive(self, hardware):
        assert hardware.bandwidth_of("ethernet") == hardware.bandwidth_of("ETHERNET")

    def test_unknown_medium(self, hardware):
        with pytest.raises(KeyError):
            hardware.bandwidth_of("carrier-pigeon")


class TestWithResource:
    def test_replaces_ethernet(self, hardware):
        upgraded = hardware.with_resource("ethernet", gbps(100))
        assert upgraded.ethernet.bandwidth == gbps(100)
        assert hardware.ethernet.bandwidth == gbps(25)  # original untouched

    def test_replaces_gpu_flops(self, hardware):
        upgraded = hardware.with_resource("gpu_flops", teraflops(64))
        assert upgraded.gpu.peak_flops == teraflops(64)
        assert upgraded.gpu.memory_bandwidth == hardware.gpu.memory_bandwidth

    def test_replaces_gpu_memory(self, hardware):
        upgraded = hardware.with_resource("gpu_memory", 4e12)
        assert upgraded.gpu.memory_bandwidth == 4e12

    def test_replaces_pcie_and_nvlink(self, hardware):
        assert hardware.with_resource("pcie", 50e9).pcie.bandwidth == 50e9
        assert hardware.with_resource("nvlink", 100e9).nvlink.bandwidth == 100e9

    def test_unknown_resource(self, hardware):
        with pytest.raises(KeyError):
            hardware.with_resource("quantum", 1.0)


class TestNormalization:
    def test_ethernet_normalized(self, hardware):
        assert hardware.normalized_resource("ethernet", gbps(100)) == pytest.approx(4.0)

    def test_pcie_normalized(self, hardware):
        assert hardware.normalized_resource(
            "pcie", gigabytes_per_second(50)
        ) == pytest.approx(5.0)

    def test_unknown(self, hardware):
        with pytest.raises(KeyError):
            hardware.normalized_resource("bogus", 1.0)


class TestTableIIIVariations:
    def test_resources(self):
        assert TABLE_III_VARIATIONS.resources() == (
            "ethernet",
            "pcie",
            "gpu_flops",
            "gpu_memory",
        )

    def test_candidate_counts(self):
        assert len(TABLE_III_VARIATIONS.ethernet) == 3
        assert len(TABLE_III_VARIATIONS.pcie) == 2
        assert len(TABLE_III_VARIATIONS.gpu_flops) == 4
        assert len(TABLE_III_VARIATIONS.gpu_memory) == 3

    def test_iteration_covers_all(self):
        pairs = list(TABLE_III_VARIATIONS)
        assert len(pairs) == 12
        assert ("ethernet", gbps(100)) in pairs

    def test_unknown_candidates(self):
        with pytest.raises(KeyError):
            TABLE_III_VARIATIONS.candidates("bogus")

    def test_base_values_included(self, hardware):
        # Every sweep includes the Table I baseline.
        assert hardware.ethernet.bandwidth in TABLE_III_VARIATIONS.ethernet
        assert hardware.pcie.bandwidth in TABLE_III_VARIATIONS.pcie
        assert hardware.gpu.memory_bandwidth in TABLE_III_VARIATIONS.gpu_memory

    def test_frozen(self, hardware):
        with pytest.raises(dataclasses.FrozenInstanceError):
            hardware.gpu = None
