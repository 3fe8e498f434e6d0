"""Hardware specifications: GPUs, interconnects, servers and clusters.

This module encodes Table I (the base system settings of the PAI cluster
where the workload traces were collected) and Table III (the hardware
configuration variations swept in Sec. III-C2), plus the testbed settings
of Sec. IV (64 servers, 8x V100 each, 25 Gbps Ethernet).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Tuple

from .units import (
    gbps,
    gigabytes_per_second,
    teraflops,
    terabytes_per_second,
)

__all__ = [
    "GpuSpec",
    "LinkSpec",
    "ServerSpec",
    "HardwareConfig",
    "HardwareVariations",
    "pai_default_hardware",
    "testbed_v100_hardware",
    "TABLE_III_VARIATIONS",
]


@dataclass(frozen=True)
class GpuSpec:
    """A GPU's compute and memory-access capabilities.

    Attributes:
        name: Marketing name, for reports only.
        peak_flops: Peak compute rate in FLOP/s (FP32 unless stated).
        memory_bandwidth: GDDR/HBM access bandwidth in bytes/s.
        memory_capacity: Device memory size in bytes; bounds which models
            fit for AllReduce weight-replica training.
        tensor_core_flops: Peak mixed-precision rate in FLOP/s, or 0.0 when
            the GPU has no TensorCore-like unit.
    """

    name: str
    peak_flops: float
    memory_bandwidth: float
    memory_capacity: float = 32e9
    tensor_core_flops: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive")
        if self.memory_capacity <= 0:
            raise ValueError("memory_capacity must be positive")
        if self.tensor_core_flops < 0:
            raise ValueError("tensor_core_flops must be non-negative")


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point or bus interconnect.

    Attributes:
        name: Identifier such as ``"PCIe"`` or ``"Ethernet"``.
        bandwidth: Peak bandwidth in bytes/s (per direction).
        latency: Per-message latency in seconds; the analytical model of
            Sec. II-B ignores latency, the discrete-event simulator uses it.
    """

    name: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")


@dataclass(frozen=True)
class ServerSpec:
    """A multi-GPU server (Fig. 1 of the paper).

    Attributes:
        gpus_per_server: GPU count; PAI servers host up to eight GPUs.
        has_nvlink: Whether GPUs are joined by the NVLink hybrid mesh
            (Fig. 1b) in addition to PCIe (Fig. 1a).
        cpu_cores: Host CPU core count (the testbed uses 96-core Xeons).
        host_memory: Host DRAM in bytes; parameter servers store large
            embedding tables here.
    """

    gpus_per_server: int = 8
    has_nvlink: bool = False
    cpu_cores: int = 96
    host_memory: float = 128e9

    def __post_init__(self) -> None:
        if self.gpus_per_server < 1:
            raise ValueError("gpus_per_server must be at least 1")
        if self.cpu_cores < 1:
            raise ValueError("cpu_cores must be at least 1")
        if self.host_memory <= 0:
            raise ValueError("host_memory must be positive")


@dataclass(frozen=True)
class HardwareConfig:
    """A complete system configuration against which workloads are modeled.

    This is the object every analytical-model entry point takes; Table I is
    the default instance (:func:`pai_default_hardware`), and the sweeps of
    Sec. III-C2 are produced by :meth:`with_resource`.
    """

    gpu: GpuSpec
    ethernet: LinkSpec
    pcie: LinkSpec
    nvlink: LinkSpec
    server: ServerSpec = ServerSpec()

    def bandwidth_of(self, medium: str) -> float:
        """Bandwidth in bytes/s of a medium named per Table II.

        Recognized media: ``"Ethernet"``, ``"PCIe"``, ``"NVLink"`` and
        ``"GPUMemory"`` (case-insensitive).
        """
        key = medium.lower()
        if key == "ethernet":
            return self.ethernet.bandwidth
        if key == "pcie":
            return self.pcie.bandwidth
        if key == "nvlink":
            return self.nvlink.bandwidth
        if key in ("gpumemory", "gpu_memory", "gddr"):
            return self.gpu.memory_bandwidth
        raise KeyError(f"unknown medium: {medium!r}")

    def with_resource(self, resource: str, value: float) -> "HardwareConfig":
        """Return a copy with one resource replaced (Table III sweeps).

        Args:
            resource: One of ``"ethernet"``, ``"pcie"``, ``"nvlink"``,
                ``"gpu_flops"``, ``"gpu_memory"``.
            value: The new capability in base units (bytes/s or FLOP/s).
        """
        key = resource.lower()
        if key == "ethernet":
            return dataclasses.replace(
                self, ethernet=dataclasses.replace(self.ethernet, bandwidth=value)
            )
        if key == "pcie":
            return dataclasses.replace(
                self, pcie=dataclasses.replace(self.pcie, bandwidth=value)
            )
        if key == "nvlink":
            return dataclasses.replace(
                self, nvlink=dataclasses.replace(self.nvlink, bandwidth=value)
            )
        if key == "gpu_flops":
            return dataclasses.replace(
                self, gpu=dataclasses.replace(self.gpu, peak_flops=value)
            )
        if key == "gpu_memory":
            return dataclasses.replace(
                self, gpu=dataclasses.replace(self.gpu, memory_bandwidth=value)
            )
        raise KeyError(f"unknown resource: {resource!r}")

    def normalized_resource(self, resource: str, value: float) -> float:
        """Express a candidate resource value relative to this config.

        Used for the x-axis of Fig. 11 ("normalized resources").
        """
        key = resource.lower()
        if key == "ethernet":
            base = self.ethernet.bandwidth
        elif key == "pcie":
            base = self.pcie.bandwidth
        elif key == "nvlink":
            base = self.nvlink.bandwidth
        elif key == "gpu_flops":
            base = self.gpu.peak_flops
        elif key == "gpu_memory":
            base = self.gpu.memory_bandwidth
        else:
            raise KeyError(f"unknown resource: {resource!r}")
        return value / base


def pai_default_hardware() -> HardwareConfig:
    """The base system settings of Table I.

    11 TFLOPs GPU with 1 TB/s memory; 25 Gbps Ethernet, 10 GB/s PCIe and
    50 GB/s NVLink interconnects.
    """
    return HardwareConfig(
        gpu=GpuSpec(
            name="PAI-base-GPU",
            peak_flops=teraflops(11),
            memory_bandwidth=terabytes_per_second(1),
        ),
        ethernet=LinkSpec("Ethernet", bandwidth=gbps(25), latency=10e-6),
        pcie=LinkSpec("PCIe", bandwidth=gigabytes_per_second(10), latency=2e-6),
        nvlink=LinkSpec("NVLink", bandwidth=gigabytes_per_second(50), latency=1e-6),
        server=ServerSpec(gpus_per_server=8, has_nvlink=False),
    )


def testbed_v100_hardware() -> HardwareConfig:
    """The Sec. IV testbed: 8x Tesla V100 servers with NVLink.

    V100 peak FP32 is ~15 TFLOPs (the ResNet50 validation example in
    Sec. IV-B divides by 15 TFLOPs) with 900 GB/s HBM2; TensorCore peak is
    ~8x the FP32 multiply-add rate (120 TFLOPs marketing figure).
    """
    return HardwareConfig(
        gpu=GpuSpec(
            name="Tesla-V100",
            peak_flops=teraflops(15),
            memory_bandwidth=terabytes_per_second(0.9),
            memory_capacity=32e9,
            tensor_core_flops=teraflops(120),
        ),
        ethernet=LinkSpec("Ethernet", bandwidth=gbps(25), latency=10e-6),
        pcie=LinkSpec("PCIe", bandwidth=gigabytes_per_second(10), latency=2e-6),
        nvlink=LinkSpec("NVLink", bandwidth=gigabytes_per_second(50), latency=1e-6),
        server=ServerSpec(gpus_per_server=8, has_nvlink=True),
    )


@dataclass(frozen=True)
class HardwareVariations:
    """The candidate hardware settings of Table III.

    Values are stored in base units (bytes/s, FLOP/s).  Iteration yields
    ``(resource, value)`` pairs covering the whole sweep space.
    """

    ethernet: Tuple[float, ...] = (gbps(10), gbps(25), gbps(100))
    pcie: Tuple[float, ...] = (
        gigabytes_per_second(10),
        gigabytes_per_second(50),
    )
    gpu_flops: Tuple[float, ...] = (
        teraflops(8),
        teraflops(16),
        teraflops(32),
        teraflops(64),
    )
    gpu_memory: Tuple[float, ...] = (
        terabytes_per_second(1),
        terabytes_per_second(2),
        terabytes_per_second(4),
    )

    def resources(self) -> Tuple[str, ...]:
        """The resource names being varied, in presentation order."""
        return ("ethernet", "pcie", "gpu_flops", "gpu_memory")

    def candidates(self, resource: str) -> Tuple[float, ...]:
        """Candidate values for one resource."""
        key = resource.lower()
        if key == "ethernet":
            return self.ethernet
        if key == "pcie":
            return self.pcie
        if key == "gpu_flops":
            return self.gpu_flops
        if key == "gpu_memory":
            return self.gpu_memory
        raise KeyError(f"unknown resource: {resource!r}")

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        for resource in self.resources():
            for value in self.candidates(resource):
                yield resource, value


TABLE_III_VARIATIONS = HardwareVariations()
