"""Synthetic PAI cluster trace: schema, generator, calibration, stats.

A trace is stored as JSONL (:mod:`.serialization`) or as a sharded
columnar store (:mod:`.columnar`), whose shards are memory-mapped (read
eagerly when a shard cannot be mapped) and decode losslessly back to
records.  The path decides the format: a directory is a columnar store,
anything else a JSONL file, and :meth:`ColumnarTrace.open` is the one
reader of a store's manifest.  :mod:`.statistics` holds the empirical
CDFs the figures and the service report.
"""

from .calibration import CALIBRATION_TARGETS, CalibrationTarget, evaluate_targets
from .columnar import (
    ColumnarTrace,
    columnar_to_jsonl,
    is_columnar_store,
    jsonl_to_columnar,
    write_columnar,
)
from .generator import ClusterTraceGenerator, TraceConfig, generate_trace
from .groups import GroupProfile, group_profiles, resource_concentration
from .schema import (
    JobRecord,
    JobView,
    features_of_type,
    iter_day_groups,
    jobs_of_type,
)
from .serialization import (
    SCHEMA_VERSION,
    append_trace,
    iter_trace,
    job_from_dict,
    job_to_dict,
    load_trace,
    save_trace,
)
from .statistics import EmpiricalCDF, StreamingCDF

__all__ = [
    "CALIBRATION_TARGETS",
    "CalibrationTarget",
    "ClusterTraceGenerator",
    "ColumnarTrace",
    "EmpiricalCDF",
    "columnar_to_jsonl",
    "GroupProfile",
    "JobRecord",
    "JobView",
    "SCHEMA_VERSION",
    "StreamingCDF",
    "TraceConfig",
    "append_trace",
    "evaluate_targets",
    "features_of_type",
    "iter_day_groups",
    "generate_trace",
    "group_profiles",
    "is_columnar_store",
    "iter_trace",
    "jsonl_to_columnar",
    "job_from_dict",
    "job_to_dict",
    "jobs_of_type",
    "load_trace",
    "resource_concentration",
    "save_trace",
    "write_columnar",
]
