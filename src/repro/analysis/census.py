"""Bottleneck census: the cluster-health view of the trace.

Labels every job by its dominant execution-time component and reports
the population shares -- before and after the AllReduce-Local
projection, making the Sec. III-C1 bottleneck shift visible as label
migrations rather than averaged percentages.
"""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.classify import Bottleneck, bottleneck_census
from ..core.population import batch_breakdowns
from .context import default_hardware, trace_feature_arrays
from .result import ExperimentResult

__all__ = ["run"]


def run(jobs: tuple = None) -> ExperimentResult:
    """Label census for the whole trace and for the projected PS jobs."""
    hardware = default_hardware()
    ps_worker = trace_feature_arrays(jobs, Architecture.PS_WORKER)
    populations = {
        "all jobs": trace_feature_arrays(jobs),
        "PS/Worker": ps_worker,
        "PS/Worker -> AllReduce-Local": ps_worker.project_ps_to(
            Architecture.ALLREDUCE_LOCAL
        ),
    }
    rows = []
    for name, population in populations.items():
        census = bottleneck_census(batch_breakdowns(population, hardware))
        rows.append(
            {
                "population": name,
                "communication": census[Bottleneck.COMMUNICATION],
                "compute": census[Bottleneck.COMPUTE],
                "memory": census[Bottleneck.MEMORY],
                "io": census[Bottleneck.INPUT_IO],
                "balanced": census[Bottleneck.BALANCED],
            }
        )
    before = rows[1]
    after = rows[2]
    notes = [
        f"projection moves communication-bound jobs "
        f"{before['communication']:.1%} -> {after['communication']:.1%} "
        f"and exposes I/O-bound jobs {before['io']:.1%} -> {after['io']:.1%}",
        "labels use a 50% dominance threshold; 'balanced' has no majority "
        "component",
    ]
    return ExperimentResult(
        experiment="census",
        title="Bottleneck census (label view of Figs. 7/10)",
        rows=rows,
        notes=notes,
    )
