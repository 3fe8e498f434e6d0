"""``suite_20k``: the researcher's ``pai-repro all`` path.

Each unit runs the 27-experiment suite on the default 20k-job trace
three ways: once cold and serial (trace caches cleared, empty result
cache), ten times warm (every experiment served from that cache), and
twice cold on a two-worker fork pool.  ``analysis``, ``core`` and ``runtime`` do the
work; it is the only workload where the result cache and the pool
matter.  The suite's inputs are the paper's fixed default trace, so
``--seed`` does not change them.

The cold serial run calls ``run_suite`` once per experiment, in suite
order, each call one piece on the host clock, so every experiment's
time is taken to the reference speed by the probes around it, as the
scheduler workloads do per chunk.  Over twenty back-to-back cold runs
this left an interquartile spread of 6% of the median, against 11% for
one ``run_suite`` call over all 27 scaled by the probes around it.  The
per-experiment calls do the same work as one call (a fingerprint, a
cache lookup, the run and a store for each experiment).

A pool run has to be one call, and the probes right around it track
its time poorly: in thirty back-to-back pool runs, scaling each by them
widened the interquartile spread from 15% to 25% of the median.  A pool
run is instead taken to the reference speed by the host speed the
unit's cold serial run measured, the ratio of its scaled to its
measured time, an average over 27 probes in the seconds before.  Over
four sets of ten runs this left spreads of 8% to 13% of the median pool
time, against 7% to 22% unscaled and 11% to 25% scaled by the run's
median probe.  A unit takes about 13 s; a run makes at least two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from canon import text_digest
from timing import (
    BenchError,
    Outcome,
    Recorder,
    median,
    repeats,
    self_time_tree,
    timed_subclass,
)

WARM_RUNS_PER_UNIT = 10
POOL_RUNS_PER_UNIT = 2
POOL_WORKERS = 2
#: Nominal seconds per unit on the reference host; sets the unit count.
UNIT_S = 13.0

CACHE_METHODS = {
    "load": ("runtime.cache.load", None),
    "store": ("runtime.cache.store", None),
}


@dataclass
class SuiteInputs:
    generate_s: float


@dataclass
class Cold:
    """One cold serial run: wall seconds as measured and at the
    reference host's speed, and per-experiment seconds in suite order."""

    wall_s: float
    reference_s: float
    durations: List[float]


@dataclass
class Unit:
    cold: Cold
    #: Seconds the cold serial run spent in cache stores (traced units).
    cold_store_s: float
    #: ``(wall, seconds in cache loads)`` per warm run.
    warm: List[tuple]
    #: ``(wall, per-experiment durations)`` per pool run.
    pool: List[tuple]

    @property
    def pool_reference_s(self) -> List[float]:
        """The pool runs' walls at the reference speed, by the host speed
        the cold serial run measured."""
        return [wall * self.cold.reference_s / self.cold.wall_s for wall, _ in self.pool]

    def layers(self, recorder: Recorder) -> dict:
        """The per-layer metrics of a traced unit: calls, and seconds as
        a share of the wall time of the run they were spent in."""
        from repro.runtime import suite_experiment_ids

        cold_s = self.cold.wall_s
        warm_s = sum(wall for wall, _ in self.warm)
        loads_s = sum(load for _, load in self.warm)
        pool_s = sum(wall for wall, _ in self.pool)
        busy_s = sum(sum(durations) for _, durations in self.pool)
        metrics = {
            "runtime.self_share": (cold_s - sum(self.cold.durations)) / cold_s,
            "runtime.warm_share": median(wall for wall, _ in self.warm) / cold_s,
            "runtime.warm_self_share": (warm_s - loads_s) / warm_s,
            "runtime.cache.load_calls": recorder.calls("runtime.cache.load"),
            "runtime.cache.load_share": loads_s / warm_s,
            "runtime.cache.store_calls": recorder.calls("runtime.cache.store"),
            "runtime.cache.store_share": self.cold_store_s / cold_s,
            "runtime.pool.busy_share": busy_s / (POOL_WORKERS * pool_s),
            "runtime.pool.critical_share": median(max(d) / wall for wall, d in self.pool),
        }
        for experiment, seconds in zip(suite_experiment_ids(), self.cold.durations):
            metrics[f"analysis.{experiment}_share"] = seconds / cold_s
        return metrics


class SuiteWorkload:
    name = "suite_20k"
    seeded = False

    def setup(self, ctx) -> SuiteInputs:
        from repro.analysis.context import clear_caches, default_trace

        ctx.probe_imports("repro.runtime", "repro.analysis.registry")
        clear_caches()
        start = time.perf_counter()
        default_trace()
        return SuiteInputs(time.perf_counter() - start)

    def _check(self, ctx, outcomes, cold: bool) -> None:
        from repro.analysis.report import render_outcomes

        failed = [o.experiment_id for o in outcomes if not o.ok]
        if failed:
            raise BenchError(f"suite experiments failed: {', '.join(failed)}")
        if not cold and not all(o.cached for o in outcomes):
            raise BenchError("warm suite run was not served fully from cache")
        ctx.check_pin("report_sha256", text_digest(render_outcomes(outcomes)))

    def _cold(self, ctx, cache) -> Cold:
        """One checked cold serial run, one experiment per piece."""
        from repro.analysis.context import clear_caches
        from repro.runtime import run_suite, suite_experiment_ids

        clear_caches()
        outcomes, run = [], Cold(0.0, 0.0, [])
        for experiment in suite_experiment_ids():
            (outcome,), wall = ctx.clock.measure(run_suite, [experiment], jobs=1, cache=cache)
            outcomes.append(outcome)
            run.wall_s += wall
            run.reference_s += wall * ctx.clock.last_scale
            run.durations.append(outcome.duration_s)
        self._check(ctx, outcomes, cold=True)
        return run

    def _run(self, ctx, cache, jobs: int, cold: bool) -> Tuple[float, List[float]]:
        """One checked ``run_suite`` over the whole suite, one piece on
        the host clock: ``(wall, per-experiment durations)``."""
        from repro.analysis.context import clear_caches
        from repro.runtime import run_suite

        if cold:
            clear_caches()
        outcomes, wall = ctx.clock.measure(run_suite, jobs=jobs, cache=cache)
        self._check(ctx, outcomes, cold)
        return wall, [o.duration_s for o in outcomes]

    def _unit(self, ctx, recorder: Optional[Recorder] = None) -> Unit:
        """Cold serial, warm runs on its cache, then cold on the pool;
        with a ``recorder``, through a cache that times loads and stores."""
        from repro.runtime import ResultCache

        cache_class = ResultCache
        if recorder is not None:
            cache_class = timed_subclass(ResultCache, recorder, CACHE_METHODS)

        def booked(name: str) -> float:
            return recorder.total_s(f"runtime.cache.{name}") if recorder else 0.0

        cache = cache_class(ctx.fresh_dir("cache"))
        cold = self._cold(ctx, cache)
        cold_store_s = booked("store")
        warm = []
        for _ in range(WARM_RUNS_PER_UNIT):
            before = booked("load")
            wall, _ = self._run(ctx, cache, 1, cold=False)
            warm.append((wall, booked("load") - before))
        pool = [
            self._run(ctx, cache_class(ctx.fresh_dir("cache")), POOL_WORKERS, cold=True)
            for _ in range(POOL_RUNS_PER_UNIT)
        ]
        return Unit(cold, cold_store_s, warm, pool)

    def measure(self, inputs, ctx):
        units = [self._unit(ctx) for _ in range(repeats(ctx.seconds, UNIT_S, 2))]
        experiments = len(units[0].cold.durations)
        cold_s = median(u.cold.reference_s for u in units)
        pool_s = median(wall for u in units for wall in u.pool_reference_s)
        return Outcome(
            {"latency_ms": cold_s * 1e3, "throughput_per_s": experiments / pool_s},
            attempted=experiments
            * len(units)
            * (1 + WARM_RUNS_PER_UNIT + POOL_RUNS_PER_UNIT),
            lines=[
                f"{len(units)} units of cold + {WARM_RUNS_PER_UNIT} warm + "
                f"{POOL_RUNS_PER_UNIT} pool suite runs",
                f"median cold run {median(u.cold.wall_s for u in units):.3f} s as measured, "
                f"{cold_s:.3f} s at the reference speed; median pool run "
                f"{median(wall for u in units for wall, _ in u.pool):.3f} s as measured, "
                f"{pool_s:.3f} s at the reference speed",
            ],
        )

    def measure_traced(self, inputs, ctx):
        from repro.runtime import ResultCache

        plain, traced = [], []
        for _ in range(repeats(ctx.seconds, 2 * UNIT_S, 1)):
            plain.append(self._cold(ctx, ResultCache(ctx.fresh_dir("cache"))))
            recorder = Recorder()
            traced.append((self._unit(ctx, recorder), recorder))
        per_unit = [unit.layers(recorder) for unit, recorder in traced]
        layers = {name: median(m[name] for m in per_unit) for name in per_unit[0]}
        layers["trace_overhead_ratio"] = median(u.cold.reference_s for u, _ in traced) / median(
            run.reference_s for run in plain
        )
        cold_s = median(u.cold.wall_s for u, _ in traced)
        return Outcome(
            layers,
            attempted=len(plain[0].durations)
            * len(traced)
            * (2 + WARM_RUNS_PER_UNIT + POOL_RUNS_PER_UNIT),
            lines=[self._tree(cold_s, layers)],
        )

    def _tree(self, cold_s: float, layers: dict) -> str:
        experiments = sorted(
            (
                (share, name[: -len("_share")])
                for name, share in layers.items()
                if name.startswith("analysis.")
            ),
            reverse=True,
        )
        rows = [(0, "runtime (self)", layers["runtime.self_share"])]
        rows += [(1, name, share) for share, name in experiments]
        return self_time_tree(f"{self.name} cold serial run", cold_s, rows)


SUITE = SuiteWorkload()
