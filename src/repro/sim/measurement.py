"""Measurements extracted from a simulated training step.

A :class:`StepMeasurement` aggregates the timeline records of one
simulated step into the same shape the analytical model predicts
(:class:`~repro.core.timemodel.TimeBreakdown`), plus the framework
overhead the analytical model deliberately ignores (Sec. IV).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.timemodel import TimeBreakdown
from .events import TimelineRecord

__all__ = ["StepMeasurement", "medium_of_resource"]


def medium_of_resource(resource: str) -> str:
    """Map a channel name to the Table II medium it implements."""
    if "nic" in resource:
        return "Ethernet"
    if "nvlink" in resource:
        return "NVLink"
    if "pcie" in resource:
        return "PCIe"
    return "local"


@dataclass(frozen=True)
class StepMeasurement:
    """All timeline records of one simulated training step.

    ``replica_compute_s`` / ``replica_step_s`` expose the per-replica
    compute phase and end-to-end times (empty for measurements built
    before these fields existed).  They are what a per-worker metrics
    agent would export, so the fault-telemetry layer samples them
    directly instead of re-deriving them from the timeline records.
    """

    workload: str
    records: Tuple[TimelineRecord, ...]
    step_time: float
    num_cnodes: int
    replica_compute_s: Tuple[float, ...] = ()
    replica_step_s: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.step_time < 0:
            raise ValueError("step_time must be non-negative")

    @functools.cached_property
    def _aggregates(
        self,
    ) -> Tuple[float, int, Dict[str, float], Dict[str, float]]:
        """Single pass over the timeline: every per-category total.

        The multi-job step loop reads several aggregate views of every
        measurement (breakdown, summary, serial total); computing them
        as independent property scans re-walked the record tuple once
        per view.  One cached pass yields the input-end sum/count, the
        per-category duration totals and the per-medium weight totals
        that all of them derive from.  (``functools.cached_property``
        stores via ``__dict__`` and therefore works on this frozen
        dataclass; the records tuple is immutable, so the cache can
        never go stale.)
        """
        input_end_sum = 0.0
        input_count = 0
        category_totals = {"compute": 0.0, "memory": 0.0, "overhead": 0.0}
        weight_totals: Dict[str, float] = {}
        for record in self.records:
            category = record.category
            if category == "input":
                input_end_sum += record.end
                input_count += 1
            elif category == "weight":
                medium = medium_of_resource(record.resource)
                weight_totals[medium] = (
                    weight_totals.get(medium, 0.0) + record.duration
                )
            elif category in category_totals:
                category_totals[category] += record.duration
        return input_end_sum, input_count, category_totals, weight_totals

    def _per_cnode_time(self, category: str) -> float:
        """Average busy seconds per cNode in one category."""
        return self._aggregates[2][category] / max(self.num_cnodes, 1)

    @property
    def data_io_time(self) -> float:
        """Average per-cNode input-phase elapsed time.

        Input transfers are the first activity of the step (they are
        requested at t=0), so a record's end time includes the FIFO
        queueing delay behind sibling GPUs on the shared PCIe complex --
        which is exactly the contention the analytical model charges.
        """
        input_end_sum, input_count, _, _ = self._aggregates
        if not input_count:
            return 0.0
        return input_end_sum / input_count

    @property
    def compute_time(self) -> float:
        return self._per_cnode_time("compute")

    @property
    def memory_time(self) -> float:
        return self._per_cnode_time("memory")

    @property
    def overhead_time(self) -> float:
        """Framework overhead (kernel launch / scheduling) per cNode."""
        return self._per_cnode_time("overhead")

    def weight_times(self) -> Dict[str, float]:
        """Per-medium weight-traffic seconds, averaged per cNode."""
        return {
            medium: seconds / max(self.num_cnodes, 1)
            for medium, seconds in self._aggregates[3].items()
        }

    @property
    def weight_time(self) -> float:
        return sum(self.weight_times().values())

    def breakdown(self) -> TimeBreakdown:
        """The measured step decomposed like the analytical model."""
        return TimeBreakdown(
            data_io=self.data_io_time,
            compute_flops=self.compute_time,
            compute_memory=self.memory_time,
            weight_comm=self.weight_times(),
        )

    @property
    def serial_total(self) -> float:
        """Sum of per-cNode component times (the model's composition)."""
        return (
            self.data_io_time
            + self.compute_time
            + self.memory_time
            + self.weight_time
            + self.overhead_time
        )

    def summary(self) -> Dict[str, float]:
        return {
            "workload": self.workload,
            "step_time": self.step_time,
            "data_io": self.data_io_time,
            "compute_bound": self.compute_time,
            "memory_bound": self.memory_time,
            "weight": self.weight_time,
            "overhead": self.overhead_time,
        }
