"""The four bundled policies as they decided before the engine kept the
scheduling context in order, kept as test oracles.

Each reference sorts the queue (and, for backfill, the running set)
with its full key, and answers its what-if question -- how many running
jobs must end, or be evicted, before a blocked job fits -- by releasing
them one at a time on a ``fleet.clone()`` and calling ``fits`` after
each.  None of them reads the order of ``context.queue`` or
``context.running``, so a replay under a reference matches one under
the bundled policy of the same name only if the engine hands the
bundled policies both orders exactly as they assume them.
"""

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.sched import (
    Fleet,
    PendingJob,
    SchedulingContext,
    SchedulingDecision,
    default_priority,
)
from repro.trace.schema import JobRecord

_BACKFILL_EPSILON = 1e-9


def fifo_order(context: SchedulingContext) -> List[PendingJob]:
    """The queue in strict (arrival, job id) order."""
    return sorted(context.queue, key=lambda p: (p.arrival_hour, p.job_id))


def greedy_starts(
    ordered: Iterable[PendingJob], fleet: Fleet
) -> Tuple[List[int], Optional[PendingJob], Fleet]:
    """Place jobs in order on a trial clone until the first failure."""
    trial = fleet.clone()
    starts: List[int] = []
    for pending in ordered:
        job = pending.job
        if trial.try_place(job.workload_type, job.num_cnodes) is None:
            return starts, pending, trial
        starts.append(pending.job_id)
    return starts, None, trial


@dataclass(frozen=True)
class ReferenceFifo:
    name: str = "fifo"

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        starts, _, _ = greedy_starts(fifo_order(context), context.fleet)
        return SchedulingDecision(starts=tuple(starts))


@dataclass(frozen=True)
class ReferenceSjf:
    name: str = "sjf"

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        ordered = sorted(
            context.queue,
            key=lambda p: (p.remaining_hours, p.arrival_hour, p.job_id),
        )
        starts, _, _ = greedy_starts(ordered, context.fleet)
        return SchedulingDecision(starts=tuple(starts))


@dataclass(frozen=True)
class ReferenceBackfill:
    name: str = "backfill"

    def _reservation_hour(
        self, context: SchedulingContext, head: PendingJob, trial: Fleet
    ) -> float:
        shadow = trial.clone()
        job = head.job
        for running in sorted(
            context.running, key=lambda r: (r.end_hour, r.job_id)
        ):
            shadow.release(running.placement)
            if shadow.fits(job.workload_type, job.num_cnodes):
                return running.end_hour
        return context.now

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        ordered = fifo_order(context)
        starts, head, trial = greedy_starts(ordered, context.fleet)
        if head is None:
            return SchedulingDecision(starts=tuple(starts))
        reservation = self._reservation_hour(context, head, trial)
        horizon = reservation - context.now + _BACKFILL_EPSILON
        for pending in ordered[len(starts) + 1 :]:
            if pending.remaining_hours > horizon:
                continue
            job = pending.job
            if trial.try_place(job.workload_type, job.num_cnodes) is not None:
                starts.append(pending.job_id)
        return SchedulingDecision(starts=tuple(starts))


@dataclass(frozen=True)
class ReferencePriority:
    priority: Callable[[JobRecord], float] = field(default=default_priority)
    preempt: bool = True
    name: str = "priority"

    def _victims_for(
        self, pending: PendingJob, context: SchedulingContext, trial: Fleet
    ) -> Optional[List[int]]:
        threshold = self.priority(pending.job)
        candidates = sorted(
            (r for r in context.running if self.priority(r.job) < threshold),
            key=lambda r: (self.priority(r.job), -r.start_hour, r.job_id),
        )
        what_if = trial.clone()
        victims: List[int] = []
        job = pending.job
        for running in candidates:
            what_if.release(running.placement)
            victims.append(running.job_id)
            if what_if.fits(job.workload_type, job.num_cnodes):
                return victims
        return None

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        ordered = sorted(
            context.queue,
            key=lambda p: (-self.priority(p.job), p.arrival_hour, p.job_id),
        )
        starts, blocked, trial = greedy_starts(ordered, context.fleet)
        if blocked is None or not self.preempt:
            return SchedulingDecision(starts=tuple(starts))
        victims = self._victims_for(blocked, context, trial)
        if victims is None:
            return SchedulingDecision(starts=tuple(starts))
        return SchedulingDecision(
            starts=tuple(starts) + (blocked.job_id,),
            preemptions=tuple(victims),
        )
