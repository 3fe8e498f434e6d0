"""The paper's analytical workload-characterization model (Sec. II-B).

This package is the primary contribution: a lightweight model that
decomposes a training step into input data I/O, computation and
weight/gradient traffic, and supports architecture projection, hardware
sweeps and assumption-sensitivity analysis on top of that decomposition.

One job is evaluated by :func:`estimate_breakdown` and
:func:`projection_speedups`; a whole population by the columnar
:class:`FeatureArrays` path (:func:`batch_breakdowns`,
:func:`batch_projection_speedups`, :func:`batch_step_times`), which is
what the figures, the scheduler and the bottleneck census
(:func:`bottleneck_census`) run on.
"""

from .architectures import Architecture
from .classify import Bottleneck, bottleneck_census
from .crossover import (
    CrossoverResult,
    crossover_distribution,
    ethernet_crossover,
)
from .efficiency import (
    EfficiencyModel,
    PAPER_DEFAULT_EFFICIENCY,
    TABLE_VI_EFFICIENCIES,
)
from .features import WorkloadFeatures
from .hardware import (
    GpuSpec,
    HardwareConfig,
    HardwareVariations,
    LinkSpec,
    ServerSpec,
    TABLE_III_VARIATIONS,
    pai_default_hardware,
    testbed_v100_hardware,
)
from .population import (
    FeatureArrays,
    FeatureView,
    PopulationBreakdown,
    ProjectionArrays,
    batch_breakdowns,
    batch_projection_speedups,
    batch_step_times,
)
from .recommend import (
    DeploymentPlan,
    Recommendation,
    candidate_plans,
    feasible,
    recommend_architecture,
)
from .projection import (
    ALLREDUCE_LOCAL_MAX_CNODES,
    ProjectionResult,
    project_to_allreduce_cluster,
    project_to_allreduce_local,
    projection_speedups,
)
from .sensitivity import (
    EfficiencyScenario,
    FIG15_SCENARIOS,
    OverlapComparison,
    compare_overlap_assumptions,
    eq3_weight_bound_speedup,
    weight_share_scenarios,
)
from .sweep import SweepPoint, SweepSeries, sweep_all_resources, sweep_resource
from .throughput import job_throughput, step_speedup, throughput_speedup
from .timemodel import (
    ModelOptions,
    OverlapMode,
    PAPER_MODEL_OPTIONS,
    TimeBreakdown,
    estimate_breakdown,
    estimate_step_time,
    ring_allreduce_factor,
    weight_traffic_times,
)

__all__ = [
    "ALLREDUCE_LOCAL_MAX_CNODES",
    "Architecture",
    "Bottleneck",
    "FeatureArrays",
    "FeatureView",
    "PopulationBreakdown",
    "ProjectionArrays",
    "batch_breakdowns",
    "batch_projection_speedups",
    "batch_step_times",
    "CrossoverResult",
    "EfficiencyModel",
    "EfficiencyScenario",
    "FIG15_SCENARIOS",
    "GpuSpec",
    "HardwareConfig",
    "HardwareVariations",
    "LinkSpec",
    "ModelOptions",
    "OverlapComparison",
    "OverlapMode",
    "PAPER_DEFAULT_EFFICIENCY",
    "PAPER_MODEL_OPTIONS",
    "ProjectionResult",
    "Recommendation",
    "DeploymentPlan",
    "ServerSpec",
    "SweepPoint",
    "SweepSeries",
    "TABLE_III_VARIATIONS",
    "TABLE_VI_EFFICIENCIES",
    "TimeBreakdown",
    "WorkloadFeatures",
    "bottleneck_census",
    "crossover_distribution",
    "compare_overlap_assumptions",
    "eq3_weight_bound_speedup",
    "estimate_breakdown",
    "ethernet_crossover",
    "estimate_step_time",
    "job_throughput",
    "pai_default_hardware",
    "project_to_allreduce_cluster",
    "project_to_allreduce_local",
    "projection_speedups",
    "recommend_architecture",
    "candidate_plans",
    "feasible",
    "ring_allreduce_factor",
    "step_speedup",
    "sweep_all_resources",
    "sweep_resource",
    "testbed_v100_hardware",
    "throughput_speedup",
    "weight_share_scenarios",
    "weight_traffic_times",
]
