"""Resident trace-analytics service: streaming ingestion, sharded
online statistics and a concurrent JSON query API.

The batch path (``pai-repro all`` / ``report``) materializes a whole
trace, computes every figure once and exits.  This package is the
long-running counterpart, the shape PAI itself runs in (Wang et al.,
IISWC 2019): jobs arrive over simulated time through a trace replayer
(:mod:`~repro.serve.replay`), land in N lock-guarded population shards
holding mergeable online statistics (:mod:`~repro.serve.stats`,
:mod:`~repro.serve.state`), and a ``ThreadingHTTPServer`` JSON API
(:mod:`~repro.serve.server`) serves many concurrent clients from merged
copy-on-write snapshots -- with hot query responses content-addressed
into the existing :mod:`repro.runtime.cache`.

With ingestion complete, the served numbers match the one-shot batch
path on the same trace: that equivalence is pinned by
:func:`~repro.serve.stats.batch_reference`, the serve test suite and
the CI ``serve-smoke`` job.  Run it via ``pai-repro serve`` and talk to
it with :class:`~repro.serve.client.ServeClient`.
"""

from .client import TRANSIENT_ERRORS, ServeClient, ServiceError
from .replay import ReplayBatch, TraceReplayer
from .server import QueryError, TraceService, serialize_jobs
from .state import DuplicateJobError, ShardedState, StatsSnapshot
from .stats import (
    AGGREGATION_LEVELS,
    CDF_METRICS,
    ShardStats,
    batch_reference,
    payload_leaves,
)

__all__ = [
    "AGGREGATION_LEVELS",
    "CDF_METRICS",
    "DuplicateJobError",
    "QueryError",
    "ReplayBatch",
    "ServeClient",
    "ServiceError",
    "TRANSIENT_ERRORS",
    "ShardStats",
    "ShardedState",
    "StatsSnapshot",
    "TraceReplayer",
    "TraceService",
    "batch_reference",
    "payload_leaves",
    "serialize_jobs",
]
