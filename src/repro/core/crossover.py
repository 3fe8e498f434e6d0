"""Crossover analysis: where does the architecture choice flip?

Fig. 9 shows that AllReduce-Local beats PS/Worker for most jobs *at
25 Gbps Ethernet*.  But the comparison is bandwidth-dependent: a fast
enough network closes PS/Worker's gap (its weight path rides Ethernet;
the AllReduce-Local port does not).  This module finds, per job, the
resource value at which the two deployments break even -- the number a
capacity planner actually needs ("how fast would the fabric have to be
before porting stops paying off?").

The search is a monotone bisection over the resource value; for
PS-vs-AllReduce-Local over Ethernet the crossover also has a closed
form, which the tests use to validate the bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from .architectures import Architecture
from .efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from .features import WorkloadFeatures
from .hardware import HardwareConfig
from .projection import projection_speedups
from .timemodel import PAPER_MODEL_OPTIONS, ModelOptions

__all__ = [
    "CrossoverResult",
    "ethernet_crossover",
    "crossover_distribution",
]

_BISECTION_STEPS = 60


@dataclass(frozen=True)
class CrossoverResult:
    """The break-even resource value for one job.

    ``value`` is None when no crossover exists inside the searched
    range: the job either always or never benefits from the projection.
    """

    features: WorkloadFeatures
    resource: str
    value: Optional[float]
    always_better: bool  # projection wins across the whole range


def _projection_speedup_at(
    features: WorkloadFeatures,
    target: Architecture,
    hardware: HardwareConfig,
    resource: str,
    value: float,
    efficiency: EfficiencyModel,
    options: ModelOptions,
) -> float:
    adjusted = hardware.with_resource(resource, value)
    return projection_speedups(
        features, target, adjusted, efficiency, options
    ).single_cnode_speedup


def ethernet_crossover(
    features: WorkloadFeatures,
    hardware: HardwareConfig,
    target: Architecture = Architecture.ALLREDUCE_LOCAL,
    low: float = None,
    high: float = None,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> CrossoverResult:
    """Ethernet bandwidth at which the projection stops paying off.

    Raising Ethernet bandwidth helps the PS/Worker baseline but not the
    NVLink-backed AllReduce-Local port, so the projection speedup is
    monotonically decreasing in Ethernet bandwidth: bisection applies.
    """
    if low is None:
        low = hardware.ethernet.bandwidth / 10
    if high is None:
        high = hardware.ethernet.bandwidth * 1000
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")

    def speedup(value: float) -> float:
        return _projection_speedup_at(
            features, target, hardware, "ethernet", value, efficiency, options
        )

    at_low = speedup(low)
    at_high = speedup(high)
    if at_low <= 1.0:
        # Even a dismal fabric doesn't make the port worthwhile.
        return CrossoverResult(features, "ethernet", None, always_better=False)
    if at_high > 1.0:
        # Even an absurdly fast fabric doesn't save PS/Worker.
        return CrossoverResult(features, "ethernet", None, always_better=True)
    lo, hi = low, high
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2
        if speedup(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return CrossoverResult(
        features, "ethernet", (lo + hi) / 2, always_better=False
    )


def crossover_distribution(
    workloads: Iterable[WorkloadFeatures],
    hardware: HardwareConfig,
    target: Architecture = Architecture.ALLREDUCE_LOCAL,
    efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
    options: ModelOptions = PAPER_MODEL_OPTIONS,
) -> List[CrossoverResult]:
    """Per-job Ethernet crossovers over a PS/Worker population."""
    results = []
    for features in workloads:
        if features.architecture is not Architecture.PS_WORKER:
            continue
        results.append(
            ethernet_crossover(
                features, hardware, target, efficiency=efficiency, options=options
            )
        )
    return results
