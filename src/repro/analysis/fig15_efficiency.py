"""Fig. 15: weight-traffic share under hardware-efficiency shifts."""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.sensitivity import FIG15_SCENARIOS, weight_share_scenarios
from ..trace.statistics import EmpiricalCDF
from .context import default_hardware, trace_feature_arrays
from .result import ExperimentResult

__all__ = ["run"]


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 15 scenario CDFs (quantile summary)."""
    scenarios = weight_share_scenarios(
        trace_feature_arrays(jobs, Architecture.PS_WORKER), default_hardware()
    )
    rows = []
    medians = {}
    for scenario in FIG15_SCENARIOS:
        shares = scenarios[scenario.name]
        cdf = EmpiricalCDF.from_samples(shares)
        medians[scenario.name] = cdf.median
        rows.append(
            {
                "scenario": scenario.name,
                "p25": cdf.quantile(0.25),
                "p50": cdf.median,
                "p75": cdf.quantile(0.75),
                # The builtin sum over Python floats, as this column has
                # always been computed: NumPy's pairwise .mean() rounds
                # differently.
                "mean": sum(shares.tolist()) / len(shares),
                "above_50pct": 1.0 - cdf.probability_at(0.5),
            }
        )
    notes = [
        "lower communication efficiency raises the weight-traffic share; "
        "lower computation efficiency lowers it",
        f"even at computation efficiency 25%, the median weight share is "
        f"{medians['Computation eff. 25%']:.1%} -- weight traffic remains "
        "the dominant time consumer on average (Sec. V-A)",
    ]
    return ExperimentResult(
        experiment="fig15",
        title="Efficiency-assumption sensitivity (Fig. 15)",
        rows=rows,
        notes=notes,
    )
