"""Parallel, cached, error-isolated execution of the experiment suite.

``run_suite`` is the engine behind ``pai-repro all`` and ``pai-repro
report``:

* experiments run in parallel worker processes (``jobs > 1``) or
  in-process (``jobs == 1``, the monkeypatch-friendly path tests use);
* each experiment is individually fenced -- a raising experiment
  becomes a failed :class:`ExperimentOutcome` carrying its traceback,
  and the rest of the suite still runs.  That isolation extends to
  *hard* worker deaths (OOM kill, ``os._exit``): pool breakage is
  converted into per-experiment outcomes rather than aborting the run
  (see below);
* with a :class:`~repro.runtime.cache.ResultCache`, previously computed
  results are served from disk and re-runs are near-instant;
* every experiment is reported as a ``span`` event through
  :mod:`repro.obs`, with cache traffic and pool lifecycle counted in
  the metric registry.

The pool forks at once; the parent generates no trace.  Its first task
is the *chain*: every pending reader of the default trace
(:data:`~repro.analysis.registry.DEFAULT_TRACE_READERS`), run one
after another in registry order in the worker that takes it.  That
worker generates the 20k-job synthetic trace once, at the first
reader, and the rest share it and its feature arrays.  Every other
experiment is its own task, so the trace-free experiments run on the
other workers while the trace is generated, and a run with no pending
reader generates no trace at all.  The set decides scheduling only:
an experiment in the wrong group computes the same result wherever it
runs.

Every worker exits by itself once its parent is gone (see
:func:`_exit_with_parent`), so a suite killed by a signal -- SIGKILL
included, which no handler can catch -- leaves no worker running.

Hard-crash isolation: every task is ``submit()``-ed on its own and
every ``future.result()`` is fenced.  When a worker dies hard the pool
breaks and *all* unfinished futures raise ``BrokenProcessPool`` -- the
crasher and its innocent in-flight neighbours are indistinguishable at
that point, and a broken chain resolves none of its experiments -- so
each unresolved experiment is retried once, on its own, in a fresh
single-worker pool (a reader of the default trace generates it again
there; only this failure path pays that).  Survivors complete there;
the experiment that kills its private pool a second time becomes a
failed outcome naming the worker death.  (Retrying in a throwaway
subprocess rather than in-process keeps a determined crasher from
taking the parent down.)
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.result import ExperimentResult
from ..obs import DEBUG, INFO, WARNING, get_obs
from .cache import ResultCache, normalize_result
from .fingerprint import experiment_fingerprint

__all__ = [
    "ExperimentOutcome",
    "run_suite",
    "suite_experiment_ids",
    "failed_ids",
]

#: Panel aliases excluded from full-suite runs (same data as ``fig13``).
_SUITE_SKIP = frozenset({"fig13a", "fig13b", "fig13c", "fig13d"})

#: ``(id, result, error, wall_s, cpu_s)`` as returned by workers.
_RawOutcome = Tuple[str, Optional[ExperimentResult], Optional[str], float, float]


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's result -- or its failure -- plus provenance."""

    experiment_id: str
    result: Optional[ExperimentResult]
    error: Optional[str]
    duration_s: float
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def __post_init__(self) -> None:
        if (self.result is None) == (self.error is None):
            raise ValueError(
                "an outcome carries exactly one of result or error"
            )


def suite_experiment_ids() -> List[str]:
    """Registry order minus the fig13 panel aliases."""
    from ..analysis.registry import experiment_ids

    return [
        experiment_id
        for experiment_id in experiment_ids()
        if experiment_id not in _SUITE_SKIP
    ]


def failed_ids(outcomes: Sequence[ExperimentOutcome]) -> List[str]:
    """Ids of the failed outcomes, in order."""
    return [o.experiment_id for o in outcomes if not o.ok]


def _run_one(experiment_id: str) -> _RawOutcome:
    """Run one experiment, fencing any exception into a traceback string.

    Module-level so the fork-based process pool can pickle it by name.
    """
    from ..analysis.registry import run_experiment

    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        result = normalize_result(run_experiment(experiment_id))
    except BaseException:
        return (
            experiment_id,
            None,
            traceback.format_exc(),
            time.perf_counter() - wall_start,
            time.process_time() - cpu_start,
        )
    return (
        experiment_id,
        result,
        None,
        time.perf_counter() - wall_start,
        time.process_time() - cpu_start,
    )


def _run_chain(experiment_ids: Tuple[str, ...]) -> List[_RawOutcome]:
    """Run experiments one after another, each fenced by :func:`_run_one`.

    One pool task: its experiments share this process's trace and
    feature-array caches.  Module-level so the pool can pickle it by
    name.
    """
    return [_run_one(experiment_id) for experiment_id in experiment_ids]


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def _exit_with_parent(parent_pid: int) -> None:
    """Pool initializer: end this worker once its parent is gone.

    A dead parent's workers are re-parented, so ``os.getppid()`` stops
    matching the pid recorded before the fork; a daemon thread polls
    for that and exits the worker, mid-experiment or idle.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _pool(
    workers: int, context: multiprocessing.context.BaseContext
) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


def _run_isolated(
    experiment_id: str, context: multiprocessing.context.BaseContext
) -> _RawOutcome:
    """Retry one experiment in a fresh single-worker pool.

    A second hard crash breaks only this private pool and is converted
    into a failed outcome for exactly this experiment.
    """
    obs = get_obs()
    obs.event("pool.retry", level=INFO, experiment=experiment_id)
    obs.metrics.counter("pool.retries").inc()
    wall_start = time.perf_counter()
    try:
        with _pool(1, context) as pool:
            return pool.submit(_run_one, experiment_id).result()
    except BaseException as exc:
        obs.event(
            "pool.worker_died",
            level=WARNING,
            experiment=experiment_id,
            error=type(exc).__name__,
        )
        obs.metrics.counter("pool.worker_deaths").inc()
        return (
            experiment_id,
            None,
            (
                f"worker process died while running {experiment_id!r} "
                f"({type(exc).__name__}); the experiment was retried in an "
                "isolated worker, which also died -- the experiment itself "
                "hard-crashes (OOM kill, os._exit, segfault)"
            ),
            time.perf_counter() - wall_start,
            0.0,
        )


def _run_pool(
    pending: List[str],
    chain: Tuple[str, ...],
    jobs: int,
    context: multiprocessing.context.BaseContext,
) -> List[_RawOutcome]:
    """Run experiments in a shared pool, surviving worker deaths.

    ``chain`` is the first task, run in one worker; every other pending
    experiment is a task of its own, and the pool starts
    ``min(jobs, tasks)`` workers.  Every future is fenced individually:
    an exception out of ``future.result()`` (``BrokenProcessPool`` when
    a worker dies hard) marks each experiment of its task *unresolved*
    instead of aborting the suite; unresolved experiments are then each
    retried in their own fresh single-worker pool by
    :func:`_run_isolated`.
    """
    obs = get_obs()
    tasks = [chain] if chain else []
    tasks += [(e,) for e in pending if e not in chain]
    workers = min(jobs, len(tasks))
    obs.event(
        "pool.start",
        level=DEBUG,
        workers=workers,
        pending=len(pending),
        tasks=len(tasks),
        chained=list(chain),
    )
    obs.metrics.gauge("pool.workers").set(workers)
    resolved: Dict[str, _RawOutcome] = {}
    try:
        with _pool(workers, context) as pool:
            futures = {pool.submit(_run_chain, task): task for task in tasks}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for future in done:
                    try:
                        raw = future.result()
                    except BaseException as exc:
                        for experiment_id in futures[future]:
                            obs.event(
                                "pool.future_broken",
                                level=DEBUG,
                                experiment=experiment_id,
                                error=type(exc).__name__,
                            )
                        continue
                    for outcome in raw:
                        resolved[outcome[0]] = outcome
    except BaseException as exc:
        # Pool teardown itself can raise once broken; anything not yet
        # resolved is retried below.
        obs.event("pool.teardown_error", level=DEBUG, error=type(exc).__name__)
    unresolved = [e for e in pending if e not in resolved]
    if unresolved:
        obs.event(
            "pool.broken",
            level=WARNING,
            unresolved=unresolved,
            resolved=len(resolved),
        )
        for experiment_id in unresolved:
            resolved[experiment_id] = _run_isolated(experiment_id, context)
    return [resolved[experiment_id] for experiment_id in pending]


def run_suite(
    experiment_ids: Optional[Sequence[str]] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[ExperimentOutcome]:
    """Run experiments with caching, parallelism and error isolation.

    Args:
        experiment_ids: Which experiments to run; defaults to the full
            suite in registry order.
        jobs: Worker-process count.  ``1`` runs in-process (sequential);
            higher values fork a process pool.
        cache: Optional on-disk result cache; hits skip execution
            entirely, and fresh successes are stored back.

    Returns:
        One :class:`ExperimentOutcome` per requested id, in request
        order.  Failures are outcomes, not exceptions -- including
        hard worker deaths under ``jobs > 1``, which fail only the
        crashing experiment (in-process runs cannot fence a hard
        ``os._exit``).
    """
    from ..analysis.registry import DEFAULT_TRACE_READERS, EXPERIMENTS

    obs = get_obs()
    if experiment_ids is None:
        experiment_ids = suite_experiment_ids()
    experiment_ids = list(experiment_ids)
    unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {', '.join(unknown)}")

    outcomes: Dict[str, ExperimentOutcome] = {}
    keys: Dict[str, str] = {}
    pending: List[str] = []
    for experiment_id in experiment_ids:
        if experiment_id in outcomes or experiment_id in pending:
            continue
        if cache is not None:
            keys[experiment_id] = experiment_fingerprint(experiment_id)
            start = time.perf_counter()
            hit = cache.load(keys[experiment_id])
            if hit is not None:
                duration_s = time.perf_counter() - start
                outcomes[experiment_id] = ExperimentOutcome(
                    experiment_id=experiment_id,
                    result=hit,
                    error=None,
                    duration_s=duration_s,
                    cached=True,
                )
                obs.metrics.counter("cache.hit").inc()
                obs.span_event(
                    "experiment",
                    wall_s=duration_s,
                    id=experiment_id,
                    cached=True,
                )
                continue
            obs.metrics.counter("cache.miss").inc()
        pending.append(experiment_id)

    context = _fork_context() if jobs > 1 and len(pending) > 1 else None
    with obs.metrics.time("suite"):
        if context is not None:
            # The default trace's readers form one task, in registry
            # order: the worker that takes it generates the trace once,
            # and the parent never does.
            chain = tuple(
                e
                for e in EXPERIMENTS
                if e in DEFAULT_TRACE_READERS and e in pending
            )
            raw = _run_pool(pending, chain, jobs, context)
        else:
            raw = [_run_one(experiment_id) for experiment_id in pending]

    for experiment_id, result, error, wall_s, cpu_s in raw:
        outcome = ExperimentOutcome(
            experiment_id=experiment_id,
            result=result,
            error=error,
            duration_s=wall_s,
        )
        outcomes[experiment_id] = outcome
        obs.metrics.counter(
            "experiments.ok" if outcome.ok else "experiments.failed"
        ).inc()
        obs.span_event(
            "experiment",
            wall_s=wall_s,
            cpu_s=cpu_s,
            status="ok" if outcome.ok else "error",
            level=INFO if not outcome.ok else DEBUG,
            id=experiment_id,
            cached=False,
        )
        if cache is not None and outcome.ok:
            if cache.store(keys[experiment_id], result) is not None:
                obs.metrics.counter("cache.store").inc()

    return [outcomes[experiment_id] for experiment_id in experiment_ids]
