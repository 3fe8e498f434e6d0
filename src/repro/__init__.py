"""repro -- reproduction of *Characterizing Deep Learning Training
Workloads on Alibaba-PAI* (Wang et al., IISWC 2019).

The package provides:

* :mod:`repro.core` -- the analytical execution-time model, architecture
  projection, hardware sweeps and sensitivity analyses (the paper's
  primary contribution);
* :mod:`repro.graphs` -- an op-level deep-learning model substrate with
  builders for the six case-study models of Sec. IV;
* :mod:`repro.trace` -- a calibrated synthetic PAI cluster trace standing
  in for the proprietary production trace of Sec. III;
* :mod:`repro.sim` -- a discrete-event "testbed" simulator used for the
  measured side of the Sec. IV validation and optimization studies;
* :mod:`repro.profiling` -- RunMetadata-style traces and the feature
  extraction pipeline of Fig. 4;
* :mod:`repro.optim` -- mixed-precision and XLA-style fusion passes
  (Sec. IV-D);
* :mod:`repro.faults` -- deterministic fault injection into the
  simulator and scheduler, with a telemetry-only root-cause-analysis
  pipeline graded by a scored scenario harness;
* :mod:`repro.analysis` -- one experiment module per table/figure of the
  paper, plus a text report renderer and CLI.

Quickstart::

    from repro import (
        Architecture, WorkloadFeatures,
        estimate_breakdown, pai_default_hardware,
    )

    features = WorkloadFeatures(
        name="resnet50-like", architecture=Architecture.PS_WORKER,
        num_cnodes=16, batch_size=64, flop_count=1.56e12,
        memory_access_bytes=31.9e9, input_bytes=38e6,
        weight_traffic_bytes=357e6, dense_weight_bytes=204e6,
    )
    breakdown = estimate_breakdown(features, pai_default_hardware())
    print(breakdown.fractions())
"""

from .core import (
    ALLREDUCE_LOCAL_MAX_CNODES,
    Architecture,
    EfficiencyModel,
    GpuSpec,
    HardwareConfig,
    HardwareVariations,
    LinkSpec,
    ModelOptions,
    OverlapMode,
    PAPER_DEFAULT_EFFICIENCY,
    PAPER_MODEL_OPTIONS,
    ProjectionResult,
    ServerSpec,
    TABLE_III_VARIATIONS,
    TABLE_VI_EFFICIENCIES,
    TimeBreakdown,
    WorkloadFeatures,
    estimate_breakdown,
    estimate_step_time,
    job_throughput,
    pai_default_hardware,
    project_to_allreduce_cluster,
    project_to_allreduce_local,
    projection_speedups,
    step_speedup,
    sweep_all_resources,
    testbed_v100_hardware,
    throughput_speedup,
)

__version__ = "1.7.0"

__all__ = [
    "ALLREDUCE_LOCAL_MAX_CNODES",
    "Architecture",
    "EfficiencyModel",
    "GpuSpec",
    "HardwareConfig",
    "HardwareVariations",
    "LinkSpec",
    "ModelOptions",
    "OverlapMode",
    "PAPER_DEFAULT_EFFICIENCY",
    "PAPER_MODEL_OPTIONS",
    "ProjectionResult",
    "ServerSpec",
    "TABLE_III_VARIATIONS",
    "TABLE_VI_EFFICIENCIES",
    "TimeBreakdown",
    "WorkloadFeatures",
    "estimate_breakdown",
    "estimate_step_time",
    "job_throughput",
    "pai_default_hardware",
    "project_to_allreduce_cluster",
    "project_to_allreduce_local",
    "projection_speedups",
    "step_speedup",
    "sweep_all_resources",
    "testbed_v100_hardware",
    "throughput_speedup",
    "__version__",
]
