"""Fig. 8: CDFs of execution-time component shares.

Panels (b)-(d): per-type CDFs of the four logical components, at both
job and cNode level.  Panel (a)'s per-hardware view is not rendered.
"""

from __future__ import annotations

from typing import Dict

from ..core.architectures import Architecture
from ..core.population import COMPONENT_KEYS, batch_breakdowns
from ..trace.statistics import EmpiricalCDF
from .context import default_hardware, trace_feature_arrays
from .result import ExperimentResult

__all__ = ["run", "component_cdfs"]


def component_cdfs(
    jobs: tuple, architecture: Architecture, cnode_level: bool = False
) -> Dict[str, EmpiricalCDF]:
    """Panels (b)-(d): per-component share CDFs for one type."""
    analyzed = batch_breakdowns(
        trace_feature_arrays(jobs, architecture), default_hardware()
    )
    weights = analyzed.cnode_weights() if cnode_level else None
    return {
        component: EmpiricalCDF.from_samples(
            analyzed.fraction_samples(component), weights
        )
        for component in COMPONENT_KEYS
    }


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 8 quantile summaries and markers."""
    rows = []
    for arch in (
        Architecture.SINGLE,
        Architecture.LOCAL_CENTRALIZED,
        Architecture.PS_WORKER,
    ):
        for cnode_level in (False, True):
            cdfs = component_cdfs(jobs, arch, cnode_level)
            for component, cdf in cdfs.items():
                rows.append(
                    {
                        "type": str(arch),
                        "level": "cNode" if cnode_level else "job",
                        "component": component,
                        "p50": cdf.median,
                        "p90": cdf.quantile(0.90),
                    }
                )
    ps = batch_breakdowns(
        trace_feature_arrays(jobs, Architecture.PS_WORKER), default_hardware()
    )
    above80 = ps.weighted_fraction_exceeding("weight", 0.80, cnode_level=True)
    single = batch_breakdowns(
        trace_feature_arrays(jobs, Architecture.SINGLE), default_hardware()
    )
    data50 = single.weighted_fraction_exceeding("data_io", 0.50)
    notes = [
        f"PS/Worker spending >80% time on weight traffic: {above80:.1%} "
        "(paper: >40%)",
        f"1w1g spending >50% time on input I/O: {data50:.1%} (paper: ~5%)",
    ]
    return ExperimentResult(
        experiment="fig8",
        title="Component-share CDFs (Fig. 8)",
        rows=rows,
        notes=notes,
    )
