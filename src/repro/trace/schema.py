"""Trace records: what the cluster-level characterization consumes.

A :class:`JobRecord` is one training job from the (synthetic) cluster
trace: its workload-feature tuple plus scheduling metadata.  The real
trace analyzed in Sec. III covers tens of thousands of jobs submitted
between Dec 1 2018 and Jan 20 2019; the synthetic generator reproduces
its reported marginal statistics (see :mod:`repro.trace.calibration`).

:class:`JobView` is the columns-first counterpart: the same attribute
surface, lazily backed by a columnar population
(:class:`repro.core.population.FeatureArrays`), skipping the
per-record validation the columnar constructors already performed
vectorized.  :meth:`repro.trace.columnar.ColumnarTrace.iter_views`
streams a million-job store as views in a few seconds, which is what
lets the scheduling engine replay traces the eager decoder cannot.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple, Union

from dataclasses import dataclass

from ..core.architectures import Architecture
from ..core.features import FEATURE_FIELDS, WorkloadFeatures
from ..core.population import FeatureView

__all__ = [
    "ROW_FIELDS",
    "JobRecord",
    "JobView",
    "features_of_type",
    "iter_day_groups",
]

#: A job as one flat tuple: the scheduling metadata, then the feature
#: tuple in :data:`~repro.core.features.FEATURE_FIELDS` order, so
#: ``JobRecord(row[0], WorkloadFeatures(*row[3:]), row[1], row[2])``
#: rebuilds the record.  The trace generator yields rows, and the
#: columnar writer consumes them without a per-job object.
ROW_FIELDS: Tuple[str, ...] = (
    "job_id",
    "submit_day",
    "user_group",
) + FEATURE_FIELDS


@dataclass(frozen=True)
class JobRecord:
    """One training job in the cluster trace.

    Attributes:
        job_id: Unique id within the trace.
        features: The per-cNode workload feature tuple (Fig. 4 schema).
        submit_day: Day offset within the trace window (0-50 for the
            Dec 1 - Jan 20 window of the paper).
        user_group: Synthetic tenant label; jobs from one group share
            workload shape tendencies.
    """

    job_id: int
    features: WorkloadFeatures
    submit_day: int = 0
    user_group: str = "default"

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError("job_id must be non-negative")
        if self.submit_day < 0:
            raise ValueError("submit_day must be non-negative")

    @property
    def workload_type(self) -> Architecture:
        """The Table II workload type of this job."""
        return self.features.architecture

    @property
    def num_cnodes(self) -> int:
        return self.features.num_cnodes


class JobView:
    """A ``JobRecord``-compatible row over a columnar trace.

    Carries the scheduling metadata and the job's shape eagerly (five
    cheap scalars) and the feature tuple as a lazy
    :class:`FeatureView`; no ``__post_init__`` re-validation happens
    because the backing store enforced the schema invariants vectorized
    when the columns were extracted.  ``workload_type`` and
    ``num_cnodes`` equal ``features.architecture`` and
    ``features.num_cnodes``; the scheduler reads them for every
    placement, so they are slots rather than reads through the view.
    Views compare and hash by identity; compare a view's fields (or
    ``features.materialize()``) with a record's instead.
    """

    __slots__ = (
        "job_id",
        "features",
        "submit_day",
        "user_group",
        "workload_type",
        "num_cnodes",
    )

    def __init__(
        self,
        job_id: int,
        features: FeatureView,
        submit_day: int,
        user_group: str,
        workload_type: Architecture,
        num_cnodes: int,
    ) -> None:
        self.job_id = job_id
        self.features = features
        self.submit_day = submit_day
        self.user_group = user_group
        #: The Table II workload type of this job.
        self.workload_type = workload_type
        self.num_cnodes = num_cnodes

    def __repr__(self) -> str:
        return (
            f"JobView(job_id={self.job_id}, submit_day={self.submit_day}, "
            f"user_group={self.user_group!r})"
        )


def features_of_type(
    jobs: Iterable[JobRecord], architecture: Architecture
) -> List[WorkloadFeatures]:
    """Feature tuples of one workload type."""
    return [job.features for job in jobs if job.workload_type is architecture]


def iter_day_groups(
    jobs: Iterable[Union[JobRecord, JobView]],
) -> Iterator[Tuple[int, List[Union[JobRecord, JobView]]]]:
    """Group a job stream into contiguous ``(submit_day, jobs)`` runs.

    Streams: each group materializes only one day's jobs, preserving
    their order.  On a submit-day-sorted trace the runs are exactly the
    submission days -- the batching unit of the serve replayer
    (:mod:`repro.serve.replay`).
    """
    day = None
    group: List[Union[JobRecord, JobView]] = []
    for job in jobs:
        if day is not None and job.submit_day != day:
            yield day, group
            group = []
        group.append(job)
        day = job.submit_day
    if group:
        yield day, group
