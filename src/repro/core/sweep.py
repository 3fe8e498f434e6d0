"""Hardware-evolution sweeps (Sec. III-C2, Table III, Fig. 11).

For each resource (Ethernet, PCIe, GPU peak FLOPs, GPU memory bandwidth)
and each candidate value, every workload's step time is re-estimated with
only that resource changed; the figure reports the *average* speedup over
the workload population against the resource value normalized by the
Table I baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from .efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from .features import WorkloadFeatures
from .hardware import TABLE_III_VARIATIONS, HardwareConfig, HardwareVariations
from .population import FeatureArrays, batch_step_times
from .timemodel import PAPER_MODEL_OPTIONS, ModelOptions

__all__ = ["SweepPoint", "SweepSeries", "sweep_resource", "sweep_all_resources"]


@dataclass(frozen=True)
class SweepPoint:
    """Average speedup at one candidate value of one resource."""

    resource: str
    value: float
    normalized_value: float
    average_speedup: float
    speedups: Tuple[float, ...]


@dataclass(frozen=True)
class SweepSeries:
    """All candidate points for one resource, in ascending value order."""

    resource: str
    points: Tuple[SweepPoint, ...]

    @property
    def sensitivity(self) -> float:
        """Average speedup gained per unit of normalized resource.

        Different resources are swept over different ranges (PCIe up to
        5x, GPU memory up to 4x), so comparing raw ``max_speedup``
        favors the widest sweep; the per-unit slope is the fair
        "which resource matters most" metric for Fig. 11.
        """
        best = 0.0
        for point in self.points:
            span = point.normalized_value - 1.0
            if span > 1e-9:
                best = max(best, (point.average_speedup - 1.0) / span)
        return best


def sweep_resource(
    workloads: Iterable[WorkloadFeatures],
    resource: str,
    candidates: Sequence[float],
    hardware: HardwareConfig,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> SweepSeries:
    """Average-speedup series for one resource over its candidates.

    The population is evaluated through the columnar batch path
    (:func:`repro.core.population.batch_step_times`): feature columns
    are extracted once and every candidate costs one vector pass.
    """
    population = FeatureArrays.coerce(workloads)
    if len(population) == 0:
        raise ValueError("workload population is empty")
    base_times = batch_step_times(population, hardware, efficiency, options)
    points = []
    for value in sorted(candidates):
        new_hardware = hardware.with_resource(resource, value)
        new_times = batch_step_times(
            population, new_hardware, efficiency, options
        )
        speedups = base_times / new_times
        points.append(
            SweepPoint(
                resource=resource,
                value=value,
                normalized_value=hardware.normalized_resource(resource, value),
                average_speedup=float(speedups.sum() / len(speedups)),
                speedups=tuple(speedups.tolist()),
            )
        )
    return SweepSeries(resource=resource, points=tuple(points))


def sweep_all_resources(
    workloads: Iterable[WorkloadFeatures],
    hardware: HardwareConfig,
    variations: HardwareVariations = TABLE_III_VARIATIONS,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> Dict[str, SweepSeries]:
    """One :class:`SweepSeries` per Table III resource (a Fig. 11 panel)."""
    population = FeatureArrays.coerce(workloads)
    return {
        resource: sweep_resource(
            population,
            resource,
            variations.candidates(resource),
            hardware,
            efficiency,
            options,
        )
        for resource in variations.resources()
    }
