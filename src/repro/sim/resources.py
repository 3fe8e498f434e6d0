"""Bandwidth-shared resources for the testbed simulator.

A :class:`Channel` models one interconnect (a PCIe complex, a NIC, an
NVLink mesh) as a FIFO bandwidth resource: transfers reserve the channel
in request order, and concurrent requests from sibling devices therefore
serialize -- which is exactly the PCIe input-contention effect the paper
observes when eight GPUs on one server load input batches simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .events import TimelineRecord

__all__ = ["Channel", "Device"]


@dataclass
class Channel:
    """One interconnect with finite bandwidth and FIFO arbitration.

    Attributes:
        name: Identifier used in timeline records ("server0/pcie").
        bandwidth: Peak bytes/s.
        latency: Per-transfer startup latency in seconds.
        efficiency: Attainable fraction of peak (Table VI measured
            values or the 70 % assumption).
    """

    name: str
    bandwidth: float
    latency: float = 0.0
    efficiency: float = 0.7
    _busy_until: float = field(default=0.0, repr=False)
    records: List[TimelineRecord] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def transfer_duration(self, num_bytes: float) -> float:
        """Occupancy time of one transfer, ignoring queueing."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return self.latency + num_bytes / (self.bandwidth * self.efficiency)

    def reserve(
        self, request_time: float, num_bytes: float, label: str, category: str
    ) -> float:
        """Enqueue a transfer at ``request_time``; returns completion time.

        The transfer starts when the channel frees up (FIFO), so sibling
        requests contend naturally.
        """
        start = max(request_time, self._busy_until)
        end = start + self.transfer_duration(num_bytes)
        self._busy_until = end
        self.records.append(
            TimelineRecord(
                name=label,
                resource=self.name,
                start=start,
                end=end,
                category=category,
                volume=num_bytes,
            )
        )
        return end

    def reset(self) -> None:
        """Clear occupancy and history (start of a new simulated step)."""
        self._busy_until = 0.0
        self.records.clear()


@dataclass
class Device:
    """One GPU as a serial execution resource.

    Attributes:
        name: Identifier ("server0/gpu3").
        peak_flops: FLOP/s at the active precision.
        memory_bandwidth: Bytes/s of device-memory access.
        compute_efficiency / memory_efficiency: attained fractions.
        launch_overhead: Per-kernel CPU scheduling + launch cost in
            seconds (the "framework overhead" of Sec. IV / Sec. VI-A3).
    """

    name: str
    peak_flops: float
    memory_bandwidth: float
    compute_efficiency: float = 0.7
    memory_efficiency: float = 0.7
    launch_overhead: float = 4e-6
    tensor_core_flops: float = 0.0
    _busy_until: float = field(default=0.0, repr=False)
    records: List[TimelineRecord] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.memory_bandwidth <= 0:
            raise ValueError("device capabilities must be positive")
        for name in ("compute_efficiency", "memory_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.launch_overhead < 0:
            raise ValueError("launch_overhead must be non-negative")

    def run_kernel(
        self,
        request_time: float,
        label: str,
        compute_seconds: float,
        category: str,
        volume: float = 0.0,
        overhead: float = None,
    ) -> float:
        """Execute one kernel; returns its completion time.

        The launch overhead is recorded as a separate "overhead"
        timeline entry so measurements can break it out.
        """
        if compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")
        overhead = self.launch_overhead if overhead is None else overhead
        start = max(request_time, self._busy_until)
        kernel_start = start + overhead
        end = kernel_start + compute_seconds
        self._busy_until = end
        if overhead > 0:
            self.records.append(
                TimelineRecord(
                    name=f"{label}/launch",
                    resource=self.name,
                    start=start,
                    end=kernel_start,
                    category="overhead",
                )
            )
        self.records.append(
            TimelineRecord(
                name=label,
                resource=self.name,
                start=kernel_start,
                end=end,
                category=category,
                volume=volume,
            )
        )
        return end

    def reset(self) -> None:
        self._busy_until = 0.0
        self.records.clear()
