"""Registry mapping experiment ids to their runner functions."""

from __future__ import annotations

from typing import Callable, Dict, List

from . import (
    case_studies,
    fig05_composition,
    fig06_scale,
    fig07_breakdown,
    fig08_cdf,
    fig09_allreduce,
    fig10_shift,
    fig11_hardware,
    fig13_optimizations,
    fig15_efficiency,
    fig16_overlap,
    tables,
)
from .batch_scaling import run as run_batch_scaling
from .calibration_report import run as run_calibration
from .census import run as run_census
from .faults_scenarios import run as run_faults_scenarios
from .inference_report import run as run_inference
from .observations import run as run_observations
from .pipeline_check import run as run_pipeline
from .sched_policies import run as run_sched_policies
from .sched_whatif import run as run_sched_whatif
from .tenants import run as run_tenants
from .result import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": tables.run_table1,
    "table2": tables.run_table2,
    "table3": tables.run_table3,
    "fig5": fig05_composition.run,
    "fig6": fig06_scale.run,
    "fig7": fig07_breakdown.run,
    "fig8": fig08_cdf.run,
    "fig9": fig09_allreduce.run,
    "fig10": fig10_shift.run,
    "fig11": fig11_hardware.run,
    "table4": case_studies.run_table4,
    "table5": case_studies.run_table5,
    "table6": case_studies.run_table6,
    "fig12": case_studies.run_fig12,
    "fig13": fig13_optimizations.run,
    "fig13a": fig13_optimizations.run_panel_a,
    "fig13b": fig13_optimizations.run_panel_b,
    "fig13c": fig13_optimizations.run_panel_c,
    "fig13d": fig13_optimizations.run_panel_d,
    "fig15": fig15_efficiency.run,
    "fig16": fig16_overlap.run,
    "calibration": run_calibration,
    "observations": run_observations,
    "inference": run_inference,
    "tenants": run_tenants,
    "batch_scaling": run_batch_scaling,
    "census": run_census,
    "pipeline": run_pipeline,
    "sched_policies": run_sched_policies,
    "sched_whatif": run_sched_whatif,
    "faults_scenarios": run_faults_scenarios,
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in presentation order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(EXPERIMENTS)}"
        ) from None
    return runner()

