"""Pluggable scheduling policies.

A :class:`Policy` looks at a read-only :class:`SchedulingContext` --
the pending queue, the running set, the fleet state and the predicted
duration of every job -- and returns a :class:`SchedulingDecision`:
which running jobs to evict first, which queued jobs to start now (in
order), and an order of queued jobs to start greedily after them.  The
engine (:mod:`repro.sched.engine`) applies the decision and asks again
until the policy has nothing more to do, so a policy never mutates
anything itself.

The engine keeps the context in the two orders the policies read, so
no policy re-sorts them: ``queue`` in (arrival hour, job id) order and
``running`` in (predicted end hour, job id) order.  A policy whose
starts are the longest placeable prefix of one order hands the engine
that order as the decision's ``greedy`` rows and plans nothing: FIFO
hands the queue itself and SJF its sorted copy, and the engine places
each row once, on the live fleet, until one does not fit.  Backfill and
priority read the fleet after their greedy prefix, so they still plan
it on a ``fleet.clone()``; what-if questions -- how many running jobs
must end or be evicted before a blocked job fits -- are one
:meth:`~repro.sched.fleet.Fleet.releases_to_fit` scan, with no clone.

Every context the engine builds conserves GPUs: each server's free
count is its capacity less the counts the running placements hold
there.  :class:`BackfillPolicy` relies on that to reuse its last head
reservation from a private one-entry cache while the running jobs that
end at or after it are the same objects -- the only state a bundled
policy keeps between rounds.

Four disciplines are provided:

* :class:`FifoPolicy` -- strict arrival order with head-of-line
  blocking.
* :class:`SjfPolicy` -- shortest predicted job first; the prediction
  comes from the runtime model, so this is where model-predicted step
  times pay off operationally.
* :class:`BackfillPolicy` -- FIFO with EASY-style backfill: when the
  head is blocked, later jobs may jump ahead only if they both fit now
  and are predicted to finish before the head's reservation time.
* :class:`PriorityPolicy` -- highest priority first, optionally
  evicting strictly lower-priority running jobs (checkpoint/restore
  semantics: the victim's remaining work is conserved and it re-queues).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..core.architectures import Architecture
from ..trace.schema import JobRecord
from .fleet import Fleet, Placement

__all__ = [
    "BackfillPolicy",
    "FifoPolicy",
    "PendingJob",
    "Policy",
    "PriorityPolicy",
    "RunningJob",
    "SchedulingContext",
    "SchedulingDecision",
    "SjfPolicy",
    "default_priority",
]

#: Slack when comparing a backfill candidate's end against the head's
#: reservation, so float noise cannot leak capacity.
_BACKFILL_EPSILON = 1e-9


@dataclass(frozen=True)
class PendingJob:
    """A queued job, as shown to policies."""

    job: JobRecord
    arrival_hour: float
    remaining_hours: float

    @property
    def job_id(self) -> int:
        """The underlying trace job id."""
        return self.job.job_id


@dataclass(frozen=True)
class RunningJob:
    """A running job, as shown to policies."""

    job: JobRecord
    placement: Placement
    start_hour: float
    end_hour: float

    @property
    def job_id(self) -> int:
        """The underlying trace job id."""
        return self.job.job_id


@dataclass(frozen=True)
class SchedulingContext:
    """Everything a policy may look at when deciding.

    ``queue`` and ``running`` are the engine's own sequences, not
    copies: they are read-only, and valid only during the ``select``
    call that receives them, since the engine changes them as soon as
    it applies the decision.  A policy that needs either later keeps a
    copy (a slice is one).  The decision itself may hand ``queue`` back
    as its ``greedy`` rows, uncopied: the engine reads them before it
    changes the queue.

    Attributes:
        now: The decision hour.
        fleet: The live fleet; policies must not mutate it.
        queue: Waiting jobs in strict (arrival hour, job id) order; a
            preempted or retried job keeps its first arrival hour.
        running: Running jobs in (end hour, job id) order.
    """

    now: float
    fleet: Fleet
    queue: Sequence[PendingJob]
    running: Sequence[RunningJob]


@dataclass(frozen=True)
class SchedulingDecision:
    """What the engine should do right now.

    The engine evicts ``preemptions``, then places ``starts``, then
    ``greedy``, all on the live fleet.  It matches ids and rows to
    jobs by job id and skips any job that is not queued at that point:
    not in the trace, running, or started earlier in the decision.

    Attributes:
        starts: Queued job ids to place, in order.  One that no longer
            fits the live fleet is skipped, and the rest are still
            placed.
        preemptions: Running job ids to evict *before* placing the
            starts.  Victims re-queue with their remaining work.
        greedy: Queued rows to place after ``starts``, in this order,
            stopping at the first that does not fit.  It may be
            ``context.queue`` itself: the engine reads it before it
            changes the queue, so victims re-queued by ``preemptions``
            are not in it.
    """

    starts: Tuple[int, ...] = ()
    preemptions: Tuple[int, ...] = ()
    greedy: Sequence[PendingJob] = ()

    @property
    def is_empty(self) -> bool:
        """Whether the decision names nothing to do."""
        return not (self.starts or self.preemptions or self.greedy)


@runtime_checkable
class Policy(Protocol):
    """The pluggable scheduling discipline interface."""

    name: str

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        """Decide which jobs to start (and evict) at ``context.now``."""
        ...


def _greedy_starts(
    ordered: Iterable[PendingJob], fleet: Fleet
) -> Tuple[List[int], Optional[PendingJob], Fleet]:
    """Place jobs in order on a trial clone until the first failure.

    Returns the started ids, the first blocked job (or ``None``) and
    the trial fleet reflecting the planned starts.  Only a policy that
    reads the fleet after its greedy prefix needs this plan; one that
    does not hands the engine its order as ``greedy`` instead.
    """
    trial = fleet.clone()
    starts: List[int] = []
    for pending in ordered:
        job = pending.job
        if trial.try_place(job.workload_type, job.num_cnodes) is None:
            return starts, pending, trial
        starts.append(pending.job_id)
    return starts, None, trial


@dataclass(frozen=True)
class FifoPolicy:
    """Strict arrival order; a blocked head blocks everyone behind it."""

    name: str = "fifo"

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        """Start the longest placeable prefix of the FIFO queue."""
        return SchedulingDecision(greedy=context.queue)


@dataclass(frozen=True)
class SjfPolicy:
    """Shortest predicted job first (model-predicted runtimes)."""

    name: str = "sjf"

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        """Start the shortest placeable prefix of the queue."""
        # A stable sort of the arrival-ordered queue: ties on remaining
        # hours keep (arrival hour, job id) order.
        ordered = sorted(context.queue, key=lambda p: p.remaining_hours)
        return SchedulingDecision(greedy=ordered)


@dataclass(frozen=True)
class BackfillPolicy:
    """FIFO with EASY backfill behind a single head reservation.

    The head's reservation is the end hour of the first running job,
    in end order, whose release lets the head fit.  When the greedy
    prefix started nothing, the policy keeps that answer in a private
    one-entry cache: the head's (architecture, width), the fleet's
    geometry and the running jobs from the reservation job to the end.
    A later such round with the same shape and geometry, whose running
    set still ends with exactly those objects (compared by identity),
    reuses the hour without a scan.

    That is exact only for a context that conserves GPUs, as every one
    the engine builds does: the free counts after releasing the first
    ``k`` running jobs are then the capacity less ``running[k:]``, so
    whether the head fits there depends on that suffix alone, and each
    shape's fit test (largest free block, servers with a free GPU, free
    total) is monotone in the free counts.  A context built by hand
    must conserve GPUs too.  The cache takes no part in equality,
    hashing or ``repr``.
    """

    name: str = "backfill"

    #: ``[key, suffix]``: the head's shape and the fleet's geometry,
    #: then the running jobs from the reservation job to the end.
    _reserved: List[Any] = field(
        default_factory=lambda: [None, ()],
        init=False,
        repr=False,
        compare=False,
    )

    def _reservation_hour(
        self,
        context: SchedulingContext,
        head: PendingJob,
        trial: Fleet,
        planned: bool,
    ) -> float:
        """Earliest hour the blocked head could start, assuming the
        currently running jobs release in predicted end order.

        ``planned`` says whether the greedy prefix placed anything on
        ``trial``.  Only a reservation over an unplanned trial fleet,
        which holds exactly the running placements, is cached or
        reused.
        """
        job = head.job
        running = context.running
        key = None
        if not planned:
            key = (
                job.workload_type,
                job.num_cnodes,
                trial.num_servers,
                trial.gpus_per_server,
            )
            cached_key, suffix = self._reserved
            tail = len(running) - len(suffix)
            if (
                cached_key == key
                and tail >= 0
                and all(map(is_, running[tail:], suffix))
            ):
                return suffix[0].end_hour
        released = trial.releases_to_fit(
            job.workload_type,
            job.num_cnodes,
            (entry.placement for entry in running),
        )
        if released is None:
            # Nothing can be reserved: the head fits no fleet of this
            # geometry, or the greedy prefix holds GPUs that no running
            # release returns.  Refuse to backfill past it.
            return context.now
        if key is not None:
            self._reserved[:] = [key, running[released - 1 :]]
        return running[released - 1].end_hour

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        """FIFO prefix, then backfill jobs that cannot delay the head."""
        queue = context.queue
        starts, head, trial = _greedy_starts(queue, context.fleet)
        if head is None:
            return SchedulingDecision(starts=tuple(starts))
        reservation = self._reservation_hour(
            context, head, trial, bool(starts)
        )
        horizon = reservation - context.now + _BACKFILL_EPSILON
        # The smallest width per architecture that failed in this pass.
        # The trial fleet only loses GPUs, and each shape's test (largest
        # free block, servers with a free GPU, free total) is monotone in
        # width, so nothing that wide can fit later in the pass.
        blocked: Dict[Architecture, int] = {
            head.job.workload_type: head.job.num_cnodes
        }
        # The started prefix ends right before the head.
        for pending in queue[len(starts) + 1 :]:
            if pending.remaining_hours > horizon:
                continue
            job = pending.job
            architecture, width = job.workload_type, job.num_cnodes
            smallest_failed = blocked.get(architecture)
            if smallest_failed is not None and width >= smallest_failed:
                continue
            if trial.try_place(architecture, width) is None:
                blocked[architecture] = width
            else:
                starts.append(pending.job_id)
        return SchedulingDecision(starts=tuple(starts))


def default_priority(job: JobRecord) -> float:
    """Default priority: gang width (big distributed jobs first).

    Wide gangs suffer the most from fragmentation, so giving them
    priority (and letting them preempt) is the classic remedy.
    """
    return float(job.num_cnodes)


@dataclass(frozen=True)
class PriorityPolicy:
    """Highest priority first, optionally preempting lower priority.

    Attributes:
        priority: Maps a job to its priority (higher runs first).
        preempt: Whether a blocked high-priority job may evict strictly
            lower-priority running jobs.
    """

    priority: Callable[[JobRecord], float] = field(default=default_priority)
    preempt: bool = True
    name: str = "priority"

    def _victims_for(
        self, pending: PendingJob, context: SchedulingContext, trial: Fleet
    ) -> Optional[List[int]]:
        """Lowest-priority victims whose eviction lets ``pending`` fit,
        or ``None`` if even evicting all of them is not enough."""
        threshold = self.priority(pending.job)
        candidates = sorted(
            (r for r in context.running if self.priority(r.job) < threshold),
            key=lambda r: (self.priority(r.job), -r.start_hour, r.job_id),
        )
        job = pending.job
        evicted = trial.releases_to_fit(
            job.workload_type,
            job.num_cnodes,
            (running.placement for running in candidates),
        )
        if evicted is None:
            return None
        return [running.job_id for running in candidates[:evicted]]

    def select(self, context: SchedulingContext) -> SchedulingDecision:
        """Start by priority; evict lower priority for a blocked job."""
        # A stable sort of the arrival-ordered queue: ties on priority
        # keep (arrival hour, job id) order.
        ordered = sorted(context.queue, key=lambda p: -self.priority(p.job))
        starts, blocked, trial = _greedy_starts(ordered, context.fleet)
        if blocked is None or not self.preempt:
            return SchedulingDecision(starts=tuple(starts))
        victims = self._victims_for(blocked, context, trial)
        if victims is None:
            return SchedulingDecision(starts=tuple(starts))
        # Evict, start the blocked job, and let the engine ask again.
        return SchedulingDecision(
            starts=tuple(starts) + (blocked.job_id,),
            preemptions=tuple(victims),
        )
