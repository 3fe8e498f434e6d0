"""The discrete-event gang-scheduling engine.

:func:`run_schedule` replays a trace of :class:`~repro.trace.schema.JobRecord`
arrivals (jobs arrive at ``submit_day * 24`` hours) against a
:class:`~repro.sched.fleet.Fleet` under a pluggable
:class:`~repro.sched.policies.Policy`.  The engine owns the mechanics
-- the event clock, placements, preemption bookkeeping and telemetry
sampling -- while the policy owns every ordering decision.

The loop is the textbook one: pop all events at the next timestamp
(completions release GPUs, arrivals join the queue), then repeatedly
ask the policy for a :class:`~repro.sched.policies.SchedulingDecision`
and apply it until the policy has nothing more to do.  A decision is
applied in three steps: evict its preemptions, place its starts (each
one that still fits), then place its ``greedy`` rows in order until
one does not fit.  FIFO and SJF decide by ``greedy`` alone, so each job
they start is placed once, on the live fleet, with no trial plan.
Preempted jobs re-queue with their remaining hours reduced by the time
they ran, so work is conserved; every run of a job is recorded as an
:class:`~repro.sched.outcomes.ExecutionSegment` and the per-job
history rolls up into :class:`~repro.sched.outcomes.JobOutcome`.

The engine keeps the queue in (arrival hour, job id) order and the
running set in (end hour, job id) order, inserting and removing by
``bisect`` as jobs arrive, start, end, are preempted and crash, and
hands both lists themselves to the policy, uncopied, in that order: no
policy re-sorts either one per decision round, and a round costs what
the policy reads rather than the queue's depth.  A decision's starts
leave the queue together, one slice per run of consecutive queue
positions, deleted from the back once the last start is placed, so
FIFO's started prefix is a single ``del queue[:k]`` rather than one
shift of the whole queue per start.  ``greedy`` may be the context's
own queue: the engine reads a decision's rows before it changes the
queue, and copies them first when its preemptions re-queue victims.
A start still counts as a backfill exactly when a job ranked ahead of
it is waiting and was not started earlier in the same decision.

Each job's (architecture, width) is read once, at admission, and its
outcome is filed at its rank, so outcomes come out in trace order with
no closing sort.

Durations are resolved for the whole trace before the replay starts;
model-predicted ones come from one vectorized evaluation
(:meth:`~repro.sched.predictor.ModelRuntimePredictor.durations`).

Determinism: given the same jobs, durations, fleet geometry and
policy, the engine produces the identical schedule -- every tie is
broken on (hour, sequence number) and policies are required to order
deterministically.  Refactors must keep every
:class:`~repro.sched.outcomes.ScheduleOutcome` byte-identical; pinned
outcome digests in the tier-1 tests enforce that.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.architectures import Architecture
from ..obs import DEBUG, INFO, get_obs
from ..trace.schema import JobRecord
from .faults import SchedFaults
from .fleet import Fleet, Placement
from .outcomes import (
    ExecutionSegment,
    FleetTelemetry,
    JobOutcome,
    ScheduleOutcome,
    TelemetrySample,
)
from .policies import (
    PendingJob,
    Policy,
    RunningJob,
    SchedulingContext,
    SchedulingDecision,
)
from .predictor import ModelRuntimePredictor, sample_durations

__all__ = ["run_schedule"]

_HOURS_PER_DAY = 24.0

#: Safety bound on policy invocations per event timestamp; a correct
#: policy converges in a handful of rounds, and one that has not
#: settled after this many fails the replay.
_MAX_DECISION_ROUNDS = 10000


class _JobState:
    """Mutable per-job bookkeeping inside one engine run."""

    __slots__ = (
        "job",
        "workload_type",
        "num_cnodes",
        "rank",
        "arrival_hour",
        "service_hours",
        "remaining_hours",
        "segments",
        "placement",
        "segment_start",
        "running_key",
        "incarnation",
        "retries",
    )

    def __init__(
        self,
        job: JobRecord,
        workload_type: Architecture,
        num_cnodes: int,
        rank: int,
        arrival_hour: float,
        service_hours: float,
    ):
        self.job = job
        #: The job's shape, read once at admission: every start places
        #: it.
        self.workload_type = workload_type
        self.num_cnodes = num_cnodes
        #: Place in (arrival hour, job id) order: the job's queue key,
        #: and the job's index among the finished outcomes.
        self.rank = rank
        self.arrival_hour = arrival_hour
        self.service_hours = service_hours
        self.remaining_hours = service_hours
        self.segments: List[ExecutionSegment] = []
        self.placement: Optional[Placement] = None
        self.segment_start = 0.0
        #: (Predicted end hour, job id) of the current run: its key in
        #: the running order.
        self.running_key: Tuple[float, int] = (0.0, 0)
        #: Bumped on every (re)start so stale completion events are
        #: recognizable after a preemption.
        self.incarnation = 0
        #: Failure/requeue cycles (injected worker crashes).
        self.retries = 0


def _resolve_durations(
    jobs: List[JobRecord],
    durations: Optional[Dict[int, float]],
    predictor: Optional[ModelRuntimePredictor],
) -> Dict[int, float]:
    if durations is not None:
        return durations
    if predictor is not None:
        return predictor.durations(jobs)
    return sample_durations(jobs)


def run_schedule(
    jobs: Iterable[JobRecord],
    fleet: Fleet,
    policy: Policy,
    durations: Optional[Dict[int, float]] = None,
    predictor: Optional[ModelRuntimePredictor] = None,
    collect_telemetry: bool = True,
    faults: Optional[SchedFaults] = None,
) -> ScheduleOutcome:
    """Schedule a trace onto a fleet under a policy.

    Args:
        jobs: The trace; arrivals happen at ``submit_day * 24`` hours.
            Accepts :class:`~repro.trace.schema.JobRecord` objects or
            the lazy :class:`~repro.trace.schema.JobView` rows a
            columnar store streams.
        fleet: The cluster.  Mutated during the run; pass a fresh one.
        policy: The scheduling discipline.
        durations: Per-job service hours keyed by job id.  When absent,
            ``predictor`` supplies them; when that is absent too, the
            log-normal :func:`~repro.sched.predictor.sample_durations`
            draw is used.
        predictor: Model-based runtime predictor (see
            :class:`~repro.sched.predictor.ModelRuntimePredictor`).
        collect_telemetry: Sample fleet state at every event timestamp.
        faults: Injected disruptions (worker crashes, preemption
            storms); ``None`` = failure-free replay.

    Returns:
        The per-job outcomes, rejects and fleet telemetry.  Jobs that
        can never fit the fleet's geometry
        (:meth:`~repro.sched.fleet.Fleet.can_ever_place`) are rejected,
        in trace order.

    Raises:
        ValueError: Two jobs share a job id, or an admitted job's
            duration is missing from ``durations``, NaN, infinite or
            negative.
        RuntimeError: The policy is stuck: it has not settled after
            ``_MAX_DECISION_ROUNDS`` decision rounds at one timestamp,
            or it leaves placeable jobs queued on an idle cluster with
            no event left.
    """
    if faults is None:
        faults = SchedFaults()
    obs = get_obs()
    policy_name = getattr(policy, "name", type(policy).__name__)
    trace = sorted(jobs, key=lambda j: (j.submit_day, j.job_id))
    service = _resolve_durations(trace, durations, predictor)

    rejected: List[JobRecord] = []
    # Event heap: (hour, sequence, kind, key, incarnation); kind 0 =
    # completion, 1 = arrival, so completions at a timestamp release
    # GPUs before that timestamp's scheduling pass.  Injected faults
    # ride the same heap: kind 2 = worker crash (key = index into
    # ``faults.crashes``), kind 3 = storm wave (key = index into
    # ``faults.storms``), ordered after the timestamp's arrivals so a
    # crash can hit a job that just started.
    events: List[Tuple[float, int, int, int, int]] = []
    states: Dict[int, _JobState] = {}
    #: Admission screen memo: geometry feasibility is a pure function
    #: of (architecture, width), so a million-job trace asks the fleet
    #: once per distinct shape instead of once per job.
    feasible: Dict[Tuple[Architecture, int], bool] = {}
    # Job ids key the per-job state and the event heap, so a repeated
    # id would silently drop one job and leak its GPUs.
    seen_ids: Set[int] = set()
    for job in trace:
        if job.job_id in seen_ids:
            raise ValueError(f"duplicate job id {job.job_id} in the trace")
        seen_ids.add(job.job_id)
        shape = (job.workload_type, job.num_cnodes)
        placeable = feasible.get(shape)
        if placeable is None:
            placeable = fleet.can_ever_place(*shape)
            feasible[shape] = placeable
        if not placeable:
            rejected.append(job)
            continue
        try:
            hours = service[job.job_id]
        except KeyError:
            raise ValueError(
                f"job {job.job_id}: durations has no entry for it"
            ) from None
        # A NaN completion never compares equal to the clock (the replay
        # would spin forever), a negative one ends before its start, and
        # an infinite one poisons utilization.
        if not 0.0 <= hours < math.inf:
            raise ValueError(
                f"job {job.job_id}: duration must be finite and "
                f"non-negative, got {hours!r} hours"
            )
        # The trace is in (submit day, job id) order, which is (arrival
        # hour, job id) order, so a job's place among the admitted ones
        # is its queue key.  It is its arrival's sequence number too.
        rank = len(states)
        arrival = job.submit_day * _HOURS_PER_DAY
        events.append((arrival, rank, 1, job.job_id, 0))
        states[job.job_id] = _JobState(job, *shape, rank, arrival, hours)

    sequence = len(events)
    for crash_index, crash in enumerate(faults.crashes):
        events.append((crash.hour, sequence, 2, crash_index, 0))
        sequence += 1
    for storm_index, storm in enumerate(faults.storms):
        for tick in storm.tick_hours():
            events.append((tick, sequence, 3, storm_index, 0))
            sequence += 1
    heapq.heapify(events)

    # Both kept sorted by ``bisect`` over a parallel key list: a job's
    # ``rank`` for the queue, its ``running_key`` for the running set.
    # A re-queued job keeps its rank, so it slots back in ahead of
    # younger waiters.  Backfill reads the running order in every round
    # its head is blocked; keeping it here is cheaper than sorting it
    # there.
    queue: List[PendingJob] = []
    queue_keys: List[int] = []
    running: List[RunningJob] = []
    running_keys: List[Tuple[float, int]] = []
    #: Finished outcomes filed by rank, so they come out in (submit day,
    #: job id) order with no closing sort.  Every admitted job has
    #: finished once the event heap drains.
    finished: List[Optional[JobOutcome]] = [None] * len(states)
    samples: List[TelemetrySample] = []
    active_gpu_hours = 0.0
    previous_hour = events[0][0] if events else 0.0
    #: Fault events whose hour has passed but which have not found a
    #: running victim yet (indices into ``faults.crashes`` /
    #: ``faults.storms``).
    pending_crashes: List[int] = []
    pending_storm_ticks: List[int] = []
    #: Event counts for the metric registry, added once per run: a
    #: registry counter takes a lock and a lookup on every use.
    tally: Counter = Counter()

    # The engine builds its rows with positional arguments: a frozen
    # dataclass's keyword ``__init__`` costs a quarter more per row.
    def enqueue(state: _JobState) -> None:
        index = bisect_left(queue_keys, state.rank)
        queue_keys.insert(index, state.rank)
        queue.insert(
            index,
            PendingJob(state.job, state.arrival_hour, state.remaining_hours),
        )

    def queue_position(state: Optional[_JobState]) -> int:
        """The job's position in the queue, or -1 if it is not queued:
        not in the trace, running, or waiting out a crash backoff."""
        if state is None or state.placement is not None:
            return -1
        position = bisect_left(queue_keys, state.rank)
        if position == len(queue_keys) or queue_keys[position] != state.rank:
            return -1
        return position

    def start_job(
        state: _JobState,
        placement: Placement,
        now: float,
        position: int,
        taken: List[int],
    ) -> None:
        """Start the queued job at ``position`` on ``placement``; the
        decision's ``taken`` positions stay ascending."""
        nonlocal sequence
        earlier = bisect_left(taken, position)
        if earlier != position:
            # An earlier arrival is still waiting, and was not started
            # by this decision: a backfill (or priority jump) by the
            # policy's own choice.  A re-queued job keeps its first
            # arrival hour, so starting it ahead of younger waiters is
            # not one.
            tally["sched.backfills"] += 1
        taken.insert(earlier, position)
        job_id = state.job.job_id
        state.placement = placement
        state.segment_start = now
        state.incarnation += 1
        end = now + state.remaining_hours
        sequence += 1
        heapq.heappush(events, (end, sequence, 0, job_id, state.incarnation))
        key = state.running_key = (end, job_id)
        index = bisect_left(running_keys, key)
        running_keys.insert(index, key)
        running.insert(index, RunningJob(state.job, placement, now, end))
        tally["sched.starts"] += 1

    def end_segment(state: _JobState, now: float) -> None:
        """Close the job's current run at ``now`` and free its GPUs."""
        state.segments.append(
            ExecutionSegment(state.segment_start, now, state.placement)
        )
        fleet.release(state.placement)
        state.placement = None
        index = bisect_left(running_keys, state.running_key)
        del running_keys[index]
        del running[index]

    def preempt_job(state: _JobState, now: float) -> None:
        tally["sched.preemptions"] += 1
        obs.event(
            "sched.preempted",
            level=DEBUG,
            job_id=state.job.job_id,
            hour=now,
            num_cnodes=state.num_cnodes,
        )
        end_segment(state, now)
        state.remaining_hours -= now - state.segment_start
        state.incarnation += 1  # invalidate the in-flight completion
        enqueue(state)

    def crash_job(state: _JobState, now: float, backoff_hours: float) -> None:
        """A worker of a running job dies: fail, back off, re-queue.

        Work is conserved (the retry resumes from the crashed segment's
        progress, as checkpoint-restore would); the operational symptom
        is the failure event, the retry counter and the backoff gap --
        not lost service hours.
        """
        nonlocal sequence
        end_segment(state, now)
        state.remaining_hours -= now - state.segment_start
        state.incarnation += 1  # invalidate the in-flight completion
        state.retries += 1
        tally["sched.failures"] += 1
        # Every crash is injected (and counted above), so it is not a
        # warning: a library replay stays silent on stderr.
        obs.event(
            "sched.job_failed",
            level=INFO,
            job_id=state.job.job_id,
            hour=now,
            retries=state.retries,
            backoff_hours=backoff_hours,
        )
        # The retry is a fresh arrival after the backoff.
        sequence += 1
        heapq.heappush(
            events,
            (now + backoff_hours, sequence, 1, state.job.job_id, 0),
        )

    try:
        while events:
            now = events[0][0]
            # Integrate GPU activity over the idle gap just ended.
            active_gpu_hours += fleet.busy_gpus * (now - previous_hour)
            previous_hour = now
            while events and events[0][0] == now:
                _, _, kind, job_id, incarnation = heapq.heappop(events)
                if kind == 2:
                    # Crashes fire after this timestamp's scheduling pass
                    # (below), when jobs started at this instant are
                    # visible as running victims.
                    pending_crashes.append(job_id)
                    continue
                if kind == 3:
                    pending_storm_ticks.append(job_id)
                    continue
                state = states[job_id]
                if kind == 0:
                    stale = incarnation != state.incarnation
                    if stale or state.placement is None:
                        continue  # stale completion of a preempted run
                    end_segment(state, now)
                    state.remaining_hours = 0.0
                    finished[state.rank] = JobOutcome(
                        state.job,
                        state.arrival_hour,
                        state.service_hours,
                        tuple(state.segments),
                        state.retries,
                    )
                    tally["sched.completions"] += 1
                else:
                    enqueue(state)

            for _ in range(_MAX_DECISION_ROUNDS):
                if not queue:
                    break
                context = SchedulingContext(now, fleet, queue, running)
                decision: SchedulingDecision = policy.select(context)
                if decision.is_empty:
                    break
                greedy = decision.greedy
                preempted = 0
                if decision.preemptions:
                    # Victims re-enter the queue, which ``greedy`` may
                    # be: read the order the policy returned first.
                    greedy = tuple(greedy)
                    for job_id in decision.preemptions:
                        state = states.get(job_id)
                        if state is None or state.placement is None:
                            continue  # policy named a job that is not running
                        preempt_job(state, now)
                        preempted += 1
                # Queue positions of the jobs this decision started,
                # ascending.  They leave the queue after the last start,
                # so ``greedy`` may be the queue itself.
                taken: List[int] = []
                for job_id in decision.starts:
                    state = states.get(job_id)
                    position = queue_position(state)
                    if position < 0:
                        continue  # policy named a job that is not queued
                    placement = fleet.try_place(
                        state.workload_type, state.num_cnodes
                    )
                    if placement is None:
                        continue  # plan no longer fits the live fleet
                    start_job(state, placement, now, position, taken)
                for pending in greedy:
                    state = states.get(pending.job.job_id)
                    position = queue_position(state)
                    if position < 0:
                        continue  # not queued, or started already
                    placement = fleet.try_place(
                        state.workload_type, state.num_cnodes
                    )
                    if placement is None:
                        break  # the order is blocked here
                    start_job(state, placement, now, position, taken)
                if not taken and not preempted:
                    break  # non-empty decision that changed nothing
                # One slice per run of consecutive positions, from the
                # back, so the runs ahead keep their positions.
                end = len(taken)
                while end:
                    first = end - 1
                    while first and taken[first - 1] == taken[first] - 1:
                        first -= 1
                    del queue_keys[taken[first] : taken[end - 1] + 1]
                    del queue[taken[first] : taken[end - 1] + 1]
                    end = first
            else:
                raise RuntimeError(
                    f"scheduler stuck: policy {policy_name!r} did not settle "
                    f"after {_MAX_DECISION_ROUNDS} decision rounds at hour "
                    f"{now!r}"
                )

            # Injected faults fire once the timestamp's scheduling settled:
            # storms evict whoever is running now; a crash kills its victim
            # (or waits armed until one exists).  Evicted/failed jobs sit
            # queued until the next event -- their freed GPUs are claimed
            # then, exactly as a monitoring-loop detection lag would.
            if pending_storm_ticks:
                for storm_index in pending_storm_ticks:
                    storm = faults.storms[storm_index]
                    victims = sorted(r.job_id for r in running)
                    for victim in victims[: storm.victims_per_tick]:
                        preempt_job(states[victim], now)
                pending_storm_ticks.clear()
            if pending_crashes:
                still_armed: List[int] = []
                for crash_index in pending_crashes:
                    crash = faults.crashes[crash_index]
                    if not running:
                        still_armed.append(crash_index)
                        continue
                    # A named victim that is not running (or not in the
                    # trace) falls back to the lowest running job id.
                    victim = states.get(crash.job_id)
                    if victim is None or victim.placement is None:
                        victim = states[min(r.job_id for r in running)]
                    crash_job(victim, now, crash.backoff_hours)
                pending_crashes[:] = still_armed

            if collect_telemetry:
                sample = TelemetrySample(
                    hour=now,
                    busy_gpus=fleet.busy_gpus,
                    free_gpus=fleet.free_gpus,
                    running_jobs=len(running),
                    queue_depth=len(queue),
                    fragmentation=fleet.fragmentation(),
                )
                samples.append(sample)
                # Mirror the sample into the metric registry so fleet state
                # shows up in the obs summary alongside everything else.
                obs.metrics.gauge("sched.queue_depth").set(sample.queue_depth)
                obs.metrics.gauge("sched.busy_gpus").set(sample.busy_gpus)
                obs.metrics.gauge("sched.fragmentation").set(
                    sample.fragmentation
                )
            if not events and queue and not running:
                # Placeable jobs remain, nothing running, no future events:
                # the policy refuses to start them and never will.
                raise RuntimeError(
                    "scheduler stuck: policy left placeable jobs queued on an "
                    "idle cluster"
                )
    finally:
        for name, count in tally.items():
            obs.metrics.counter(name).inc(count)

    telemetry = FleetTelemetry(
        samples=tuple(samples),
        total_gpus=fleet.total_gpus,
        active_gpu_hours=active_gpu_hours,
    )
    if rejected:
        obs.metrics.counter("sched.rejections").inc(len(rejected))
    obs.metrics.gauge("sched.utilization").set(telemetry.average_utilization())
    obs.event(
        "sched.done",
        level=DEBUG,
        policy=policy_name,
        jobs=len(trace),
        finished=len(finished),
        rejected=len(rejected),
        utilization=telemetry.average_utilization(),
        active_gpu_hours=active_gpu_hours,
    )
    return ScheduleOutcome(
        policy=policy_name,
        outcomes=finished,
        total_gpus=fleet.total_gpus,
        rejected=rejected,
        telemetry=telemetry,
    )
