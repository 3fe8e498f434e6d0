"""The two scheduler-replay workloads.

Both replay a 20k-job, 51-day trace (about 400 arrivals a day),
streamed as lazy rows from a columnar store, with model-predicted
durations capped at 24 h and telemetry off.  They differ in policy and
fleet size, which moves the time to different layers:

* ``sched_fifo_absorb`` -- FIFO on 720 servers, more than twice the
  mean daily GPU demand and above the busiest day at every seed tried.
  No job waits, so the time goes to placement: live ``try_place`` and
  the policy's trial placements on ``fleet.clone()``.
* ``sched_backfill_contended`` -- EASY backfill on 120 servers, 0.35x
  the mean daily demand, over the first 25 days.  Jobs queue, and
  ``select`` dominates: the reservation's shadow ``clone`` plus one
  ``release`` and one ``fits`` per running job.  A placement-only
  change should leave it flat.

The contended replay always uses the paper's default-seed trace.  Its
cost is set by a few long head-of-line reservations: over eight seeds
the interquartile range of its trial releases was half their median,
and that of its replay time a third, more than any bound could allow.
Without queueing the FIFO replay's cost barely moves with the seed, so
it takes its trace from ``--seed``.  Its fleet size is fixed rather
than drawn from each trace's demand, because placement scans every
server: sized from demand, it ranged over 667-715 servers across ten
seeds, and the replay time followed it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from canon import schedule_digest, text_digest
from timing import (
    BenchError,
    HostClock,
    Outcome,
    Recorder,
    median,
    ratio,
    repeats,
    self_time_tree,
    timed_subclass,
)

TRACE_JOBS = 20000
TRACE_DAYS = 51
CHUNK_DAYS = 5
PREDICTOR_MAX_HOURS = 24.0

FLEET_METHODS = {
    "try_place": ("sched.fleet.place", "sched.fleet.trial_place"),
    "release": ("sched.fleet.release", "sched.fleet.trial_release"),
    "clone": ("sched.fleet.clone", None),
    "fits": ("sched.fleet.fits", None),
    "feasibility_caps": ("sched.fleet.caps", None),
}
FLEET_LAYERS = ("place", "trial_place", "release", "trial_release", "clone", "fits", "caps")


@dataclass
class SchedInputs:
    #: The trace's jobs, split by submission day into replay chunks.
    chunks: List[list]
    generate_s: float


@dataclass
class Pass:
    """One replay of every chunk: wall seconds summed over the chunks,
    as measured and at the reference host's speed, each chunk's schedule
    digest, and the layer counters."""

    wall_s: float
    reference_s: float
    digests: List[str]
    recorder: Recorder


class TimedPolicy:
    """Forwards a policy's ``name``, ``may_preempt`` and ``select``,
    timing ``select`` and marking fleet calls inside it as trials."""

    def __init__(self, policy, recorder: Recorder) -> None:
        self.name = policy.name
        if hasattr(policy, "may_preempt"):
            self.may_preempt = policy.may_preempt

        def select(context):
            recorder.trial = True
            try:
                return policy.select(context)
            finally:
                recorder.trial = False

        self.select = recorder.wrap(
            "sched.policies.select", select, failed=lambda d: d.is_empty
        )


def timed_classes(recorder: Recorder):
    """Timed ``Fleet`` and ``ModelRuntimePredictor`` subclasses."""
    from repro.sched import Fleet, ModelRuntimePredictor

    base = timed_subclass(
        Fleet,
        recorder,
        FLEET_METHODS,
        failed={"try_place": lambda placement: placement is None},
    )

    class TimedFleet(base):
        def clone(self):
            # Trial fleets must stay timed too.
            copy = super().clone()
            copy.__class__ = type(self)
            return copy

    predictor = timed_subclass(
        ModelRuntimePredictor,
        recorder,
        {"batch_duration_hours": ("sched.predictor.batch", None)},
    )
    return TimedFleet, predictor


def replay(jobs, servers: int, policy, fleet_class=None, predictor_class=None):
    """One replay of ``jobs``; returns the ``ScheduleOutcome``."""
    from repro.sched import Fleet, ModelRuntimePredictor, run_schedule

    fleet_class = fleet_class or Fleet
    predictor_class = predictor_class or ModelRuntimePredictor
    return run_schedule(
        jobs,
        fleet_class(servers),
        policy,
        predictor=predictor_class(max_hours=PREDICTOR_MAX_HOURS),
        collect_telemetry=False,
    )


def layer_metrics(recorder: Recorder, wall_s: float) -> dict:
    """The per-layer metrics of one traced replay: calls, and seconds
    as a share of the replay's wall time."""
    select = "sched.policies.select"
    metrics = {
        "sched.engine.self_share": (wall_s - recorder.top_level_s) / wall_s,
        "sched.policies.select_calls": recorder.calls(select),
        "sched.policies.select_share": recorder.total_s(select) / wall_s,
        "sched.policies.select_self_share": recorder.self_s(select) / wall_s,
        "sched.policies.empty_ratio": ratio(recorder.failures(select), recorder.calls(select)),
        "sched.predictor.batch_calls": recorder.calls("sched.predictor.batch"),
        "sched.predictor.batch_share": recorder.total_s("sched.predictor.batch") / wall_s,
    }
    for layer in FLEET_LAYERS:
        name = f"sched.fleet.{layer}"
        metrics[f"{name}_calls"] = recorder.calls(name)
        metrics[f"{name}_share"] = recorder.total_s(name) / wall_s
    metrics["sched.fleet.trial_place_fail_ratio"] = ratio(
        recorder.failures("sched.fleet.trial_place"), recorder.calls("sched.fleet.trial_place")
    )
    return metrics


def layer_tree(title: str, wall_s: float, metrics: dict) -> str:
    rows = [(0, "sched.engine", metrics["sched.engine.self_share"])]
    rows.append((0, "sched.policies.select", metrics["sched.policies.select_self_share"]))
    for layer in ("trial_place", "trial_release", "clone", "fits"):
        rows.append((1, f"sched.fleet.{layer}", metrics[f"sched.fleet.{layer}_share"]))
    for layer in ("place", "release", "caps"):
        rows.append((0, f"sched.fleet.{layer}", metrics[f"sched.fleet.{layer}_share"]))
    rows.append((0, "sched.predictor.batch", metrics["sched.predictor.batch_share"]))
    return self_time_tree(title, wall_s, rows)


class SchedWorkload:
    """A replay workload: one policy on a fleet of fixed size.

    A pass replays the trace :data:`CHUNK_DAYS` submission days at a
    time, each chunk on a fresh fleet and timed as one piece on the
    host clock, so the host's speed is probed every half second or so.
    Each chunk's time is taken to the reference speed by the probes
    around it, and the reported replay time is the median pass time.
    Over ten runs this per-chunk scaling left half the spread of the
    unscaled pass time, and less than one scale for the whole run did.
    """

    def __init__(
        self,
        name: str,
        policy_name: str,
        servers: int,
        days: int,
        pass_s: float,
        seeded: bool = True,
    ) -> None:
        self.name = name
        self.policy_name = policy_name
        self.servers = servers
        self.days = days
        #: Nominal seconds per pass on the reference host; sets the pass count.
        self.pass_s = pass_s
        #: Whether ``--seed`` picks the trace; if not, the default seed does.
        self.seeded = seeded

    def policy(self):
        import repro.sched as sched

        return getattr(sched, self.policy_name)()

    def setup(self, ctx) -> SchedInputs:
        from repro.trace import ColumnarTrace, TraceConfig, generate_trace, write_columnar

        ctx.probe_imports("repro.sched", "repro.trace")
        seed = ctx.seed if self.seeded else TraceConfig().seed
        start = time.perf_counter()
        records = generate_trace(
            config=TraceConfig(num_jobs=TRACE_JOBS, seed=seed, trace_days=TRACE_DAYS)
        )
        generate_s = time.perf_counter() - start
        store = ctx.fresh_dir("columnar")
        write_columnar(records, store)
        jobs = list(ColumnarTrace.open(store).iter_views())
        chunks = [
            [job for job in jobs if first <= job.submit_day < first + CHUNK_DAYS]
            for first in range(0, self.days, CHUNK_DAYS)
        ]
        return SchedInputs(chunks, generate_s)

    def replay_passes(self, inputs: SchedInputs, clock: HostClock, traced: tuple) -> List[Pass]:
        """One pass per flag in ``traced``, interleaved chunk by chunk:
        each chunk is replayed once per pass before the next chunk, each
        replay one piece on ``clock``.  Passes compared with each other
        then see the same seconds of the host's drift."""
        passes = []
        for flag in traced:
            recorder = Recorder()
            classes = timed_classes(recorder) if flag else (None, None)
            passes.append((Pass(0.0, 0.0, [], recorder), flag, classes))
        for chunk in inputs.chunks:
            for result, flag, (fleet_class, predictor_class) in passes:
                policy = TimedPolicy(self.policy(), result.recorder) if flag else self.policy()
                outcome, wall = clock.measure(
                    replay, chunk, self.servers, policy, fleet_class, predictor_class
                )
                result.wall_s += wall
                result.reference_s += wall * clock.last_scale
                result.digests.append(schedule_digest(outcome))
        return [result for result, _, _ in passes]

    def _check(self, ctx, passes: List[Pass]) -> str:
        """All passes must agree chunk by chunk; returns the trace digest."""
        digests = {tuple(p.digests) for p in passes}
        if len(digests) != 1:
            raise BenchError(f"{self.name}: replays of the same chunk disagree")
        digest = text_digest(",".join(digests.pop()))
        ctx.check_pin("schedule_sha256", digest)
        return digest

    def measure(self, inputs: SchedInputs, ctx):
        passes = [
            self.replay_passes(inputs, ctx.clock, (False,))[0]
            for _ in range(repeats(ctx.seconds, self.pass_s, 3))
        ]
        digest = self._check(ctx, passes)
        replay_s = median(p.reference_s for p in passes)
        jobs = sum(len(chunk) for chunk in inputs.chunks)
        return Outcome(
            {"latency_ms": replay_s * 1e3, "throughput_per_s": jobs / replay_s},
            attempted=len(passes) * len(inputs.chunks),
            lines=[
                f"{len(passes)} passes of {len(inputs.chunks)} chunk replays ({jobs} jobs) "
                f"on {self.servers} servers, digest {digest[:16]}",
                f"median pass {median(p.wall_s for p in passes):.3f} s as measured, "
                f"{replay_s:.3f} s at the reference speed",
            ],
        )

    def measure_traced(self, inputs: SchedInputs, ctx):
        pairs = [
            self.replay_passes(inputs, ctx.clock, (False, True))
            for _ in range(repeats(ctx.seconds, 2 * self.pass_s, 1))
        ]
        self._check(ctx, [run for pair in pairs for run in pair])
        per_pass = [layer_metrics(traced.recorder, traced.wall_s) for _, traced in pairs]
        layers = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        layers["trace_overhead_ratio"] = median(t.reference_s for _, t in pairs) / median(
            p.reference_s for p, _ in pairs
        )
        wall_s = median(traced.wall_s for _, traced in pairs)
        return Outcome(
            layers,
            attempted=2 * len(pairs) * len(inputs.chunks),
            lines=[layer_tree(self.name, wall_s, layers)],
        )


#: Backfill replays the first 25 days only, so a pass takes about as
#: long as FIFO's 51.
FIFO = SchedWorkload(
    "sched_fifo_absorb", "FifoPolicy", servers=720, days=TRACE_DAYS, pass_s=6.5
)
BACKFILL = SchedWorkload(
    "sched_backfill_contended",
    "BackfillPolicy",
    servers=120,
    days=25,
    pass_s=6.0,
    seeded=False,
)
