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
and apply it until the policy has nothing more to do.  Preempted jobs
re-queue with their remaining hours reduced by the time they ran, so
work is conserved; every run of a job is recorded as an
:class:`~repro.sched.outcomes.ExecutionSegment` and the per-job
history rolls up into :class:`~repro.sched.outcomes.JobOutcome`.

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
#: policy converges in a handful of rounds.
_MAX_DECISION_ROUNDS = 10000


class _JobState:
    """Mutable per-job bookkeeping inside one engine run."""

    __slots__ = (
        "job",
        "arrival_hour",
        "service_hours",
        "remaining_hours",
        "segments",
        "placement",
        "segment_start",
        "incarnation",
        "retries",
    )

    def __init__(self, job: JobRecord, arrival_hour: float, service_hours: float):
        self.job = job
        self.arrival_hour = arrival_hour
        self.service_hours = service_hours
        self.remaining_hours = service_hours
        self.segments: List[ExecutionSegment] = []
        self.placement: Optional[Placement] = None
        self.segment_start = 0.0
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
            duration is NaN, infinite or negative.
    """
    if faults is None:
        faults = SchedFaults()
    obs = get_obs()
    trace = sorted(jobs, key=lambda j: (j.submit_day, j.job_id))
    service = _resolve_durations(trace, durations, predictor)

    rejected: List[JobRecord] = []
    admitted: List[Tuple[JobRecord, float]] = []
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
        # A NaN completion never compares equal to the clock (the replay
        # would spin forever), a negative one ends before its start, and
        # an infinite one poisons utilization.
        hours = service[job.job_id]
        if not 0.0 <= hours < math.inf:
            raise ValueError(
                f"job {job.job_id}: duration must be finite and "
                f"non-negative, got {hours!r} hours"
            )
        admitted.append((job, hours))

    # Event heap: (hour, sequence, kind, key, incarnation); kind 0 =
    # completion, 1 = arrival, so completions at a timestamp release
    # GPUs before that timestamp's scheduling pass.  Injected faults
    # ride the same heap: kind 2 = worker crash (key = index into
    # ``faults.crashes``), kind 3 = storm wave (key = index into
    # ``faults.storms``), ordered after the timestamp's arrivals so a
    # crash can hit a job that just started.
    events: List[Tuple[float, int, int, int, int]] = []
    states: Dict[int, _JobState] = {}
    sequence = 0
    for job, hours in admitted:
        arrival = job.submit_day * _HOURS_PER_DAY
        events.append((arrival, sequence, 1, job.job_id, 0))
        states[job.job_id] = _JobState(job, arrival, hours)
        sequence += 1
    for crash_index, crash in enumerate(faults.crashes):
        events.append((crash.hour, sequence, 2, crash_index, 0))
        sequence += 1
    for storm_index, storm in enumerate(faults.storms):
        for tick in storm.tick_hours():
            events.append((tick, sequence, 3, storm_index, 0))
            sequence += 1
    heapq.heapify(events)

    queue: List[PendingJob] = []
    running: Dict[int, RunningJob] = {}
    finished: List[JobOutcome] = []
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

    def start_job(state: _JobState, placement: Placement, now: float) -> None:
        nonlocal sequence
        state.placement = placement
        state.segment_start = now
        state.incarnation += 1
        end = now + state.remaining_hours
        sequence += 1
        heapq.heappush(
            events, (end, sequence, 0, state.job.job_id, state.incarnation)
        )
        running[state.job.job_id] = RunningJob(
            job=state.job, placement=placement, start_hour=now, end_hour=end
        )
        tally["sched.starts"] += 1

    def preempt_job(state: _JobState, now: float) -> None:
        tally["sched.preemptions"] += 1
        obs.event(
            "sched.preempted",
            level=DEBUG,
            job_id=state.job.job_id,
            hour=now,
            num_cnodes=state.job.num_cnodes,
        )
        state.segments.append(
            ExecutionSegment(
                start_hour=state.segment_start,
                end_hour=now,
                placement=state.placement,
            )
        )
        state.remaining_hours -= now - state.segment_start
        fleet.release(state.placement)
        state.placement = None
        state.incarnation += 1  # invalidate the in-flight completion
        del running[state.job.job_id]
        queue.append(
            PendingJob(
                job=state.job,
                arrival_hour=state.arrival_hour,
                remaining_hours=state.remaining_hours,
            )
        )

    def crash_job(state: _JobState, now: float, backoff_hours: float) -> None:
        """A worker of a running job dies: fail, back off, re-queue.

        Work is conserved (the retry resumes from the crashed segment's
        progress, as checkpoint-restore would); the operational symptom
        is the failure event, the retry counter and the backoff gap --
        not lost service hours.
        """
        nonlocal sequence
        state.segments.append(
            ExecutionSegment(
                start_hour=state.segment_start,
                end_hour=now,
                placement=state.placement,
            )
        )
        state.remaining_hours -= now - state.segment_start
        fleet.release(state.placement)
        state.placement = None
        state.incarnation += 1  # invalidate the in-flight completion
        state.retries += 1
        del running[state.job.job_id]
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
                    state.segments.append(
                        ExecutionSegment(
                            start_hour=state.segment_start,
                            end_hour=now,
                            placement=state.placement,
                        )
                    )
                    state.remaining_hours = 0.0
                    fleet.release(state.placement)
                    state.placement = None
                    del running[job_id]
                    finished.append(
                        JobOutcome(
                            job=state.job,
                            arrival_hour=state.arrival_hour,
                            service_hours=state.service_hours,
                            segments=tuple(state.segments),
                            retries=state.retries,
                        )
                    )
                    tally["sched.completions"] += 1
                else:
                    queue.append(
                        PendingJob(
                            job=state.job,
                            arrival_hour=state.arrival_hour,
                            remaining_hours=state.remaining_hours,
                        )
                    )

            for _ in range(_MAX_DECISION_ROUNDS):
                if not queue:
                    break
                context = SchedulingContext(
                    now=now,
                    fleet=fleet,
                    queue=tuple(queue),
                    running=tuple(running.values()),
                )
                decision: SchedulingDecision = policy.select(context)
                if decision.is_empty:
                    break
                applied = 0
                for job_id in decision.preemptions:
                    state = states.get(job_id)
                    if state is None or state.placement is None:
                        continue  # policy named a job that is not running
                    preempt_job(state, now)
                    applied += 1
                pending_by_id = {p.job_id: p for p in queue}
                for job_id in decision.starts:
                    pending = pending_by_id.get(job_id)
                    if pending is None:
                        continue  # policy named a job that is not queued
                    state = states[job_id]
                    placement = fleet.try_place(
                        state.job.workload_type, state.job.num_cnodes
                    )
                    if placement is None:
                        continue  # plan no longer fits the live fleet
                    # By identity: a dataclass ``==`` scan would compare
                    # every job record ahead of it.
                    position = next(
                        index
                        for index, queued in enumerate(queue)
                        if queued is pending
                    )
                    if position:
                        # Started past an older waiter: a backfill (or
                        # priority jump) by the policy's own choice.
                        tally["sched.backfills"] += 1
                    del queue[position]
                    start_job(state, placement, now)
                    applied += 1
                if applied == 0:
                    break  # non-empty decision that changed nothing

            # Injected faults fire once the timestamp's scheduling settled:
            # storms evict whoever is running now; a crash kills its victim
            # (or waits armed until one exists).  Evicted/failed jobs sit
            # queued until the next event -- their freed GPUs are claimed
            # then, exactly as a monitoring-loop detection lag would.
            if pending_storm_ticks:
                for storm_index in pending_storm_ticks:
                    storm = faults.storms[storm_index]
                    for victim in sorted(running)[: storm.victims_per_tick]:
                        preempt_job(states[victim], now)
                pending_storm_ticks.clear()
            if pending_crashes:
                still_armed: List[int] = []
                for crash_index in pending_crashes:
                    crash = faults.crashes[crash_index]
                    victim: Optional[int] = None
                    if running:
                        named = crash.job_id
                        if named is not None and named in running:
                            victim = named
                        else:
                            victim = min(running)
                    if victim is None:
                        still_armed.append(crash_index)
                        continue
                    crash_job(states[victim], now, crash.backoff_hours)
                pending_crashes[:] = still_armed

            if collect_telemetry:
                samples.append(
                    TelemetrySample(
                        hour=now,
                        busy_gpus=fleet.busy_gpus,
                        free_gpus=fleet.free_gpus,
                        running_jobs=len(running),
                        queue_depth=len(queue),
                        fragmentation=fleet.fragmentation(),
                    )
                )
                # Mirror the sample into the metric registry so fleet state
                # shows up in the obs summary alongside everything else.
                obs.metrics.gauge("sched.queue_depth").set(len(queue))
                obs.metrics.gauge("sched.busy_gpus").set(fleet.busy_gpus)
                obs.metrics.gauge("sched.fragmentation").set(
                    fleet.fragmentation()
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

    outcomes = sorted(
        finished, key=lambda o: (o.job.submit_day, o.job.job_id)
    )
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
        policy=getattr(policy, "name", type(policy).__name__),
        jobs=len(trace),
        finished=len(finished),
        rejected=len(rejected),
        utilization=telemetry.average_utilization(),
        active_gpu_hours=active_gpu_hours,
    )
    return ScheduleOutcome(
        policy=getattr(policy, "name", type(policy).__name__),
        outcomes=outcomes,
        total_gpus=fleet.total_gpus,
        rejected=rejected,
        telemetry=telemetry,
    )
