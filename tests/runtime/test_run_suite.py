"""Parallel, cached, error-isolated suite execution."""

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import context
from repro.analysis.context import TRACE_JOBS_ENV_VAR, clear_caches
from repro.analysis.registry import (
    DEFAULT_TRACE_READERS,
    EXPERIMENTS,
    run_experiment,
)
from repro.analysis.report import render_outcomes
from repro.analysis.result import ExperimentResult
from repro.runtime import (
    ExperimentOutcome,
    ResultCache,
    failed_ids,
    run_suite,
    suite_experiment_ids,
)


def of_kind(sink, kind):
    """The events of one kind that a ``MemorySink`` collected, in order."""
    return [event for event in sink.events if event.get("kind") == kind]


#: Small trace for suite-level tests; participates in fingerprints, so
#: entries never collide with a full-size run's cache.
SMALL_TRACE = "1500"


@pytest.fixture()
def small_trace(monkeypatch):
    monkeypatch.setenv(TRACE_JOBS_ENV_VAR, SMALL_TRACE)
    yield
    clear_caches()


def _toy_registry(monkeypatch, experiments):
    import repro.analysis.registry as registry_module

    monkeypatch.setattr(registry_module, "EXPERIMENTS", experiments)


def _toy(experiment_id, value):
    return ExperimentResult(
        experiment=experiment_id, title="toy", rows=[{"v": value}]
    )


class TestOutcome:
    def test_requires_exactly_one_of_result_or_error(self):
        with pytest.raises(ValueError):
            ExperimentOutcome("x", None, None, 0.0)
        with pytest.raises(ValueError):
            ExperimentOutcome("x", _toy("x", 1), "boom", 0.0)

    def test_ok(self):
        assert ExperimentOutcome("x", _toy("x", 1), None, 0.0).ok
        assert not ExperimentOutcome("x", None, "boom", 0.0).ok


class TestSuiteIds:
    def test_skips_fig13_panels(self):
        ids = suite_experiment_ids()
        assert "fig13" in ids
        for panel in ("fig13a", "fig13b", "fig13c", "fig13d"):
            assert panel not in ids

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="no-such-experiment"):
            run_suite(["no-such-experiment"])


class TestErrorIsolation:
    def test_failure_is_an_outcome_not_an_exception(self, monkeypatch):
        def broken():
            raise RuntimeError("injected failure")

        _toy_registry(
            monkeypatch,
            {"a": lambda: _toy("a", 1), "broken": broken,
             "b": lambda: _toy("b", 2)},
        )
        outcomes = run_suite(["a", "broken", "b"], jobs=1)
        assert [o.experiment_id for o in outcomes] == ["a", "broken", "b"]
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "injected failure" in outcomes[1].error
        assert "RuntimeError" in outcomes[1].error
        assert failed_ids(outcomes) == ["broken"]

    def test_failures_are_not_cached(self, monkeypatch, tmp_path):
        calls = []

        def flaky():
            calls.append(1)
            raise RuntimeError("still broken")

        _toy_registry(monkeypatch, {"flaky": flaky})
        cache = ResultCache(tmp_path)
        run_suite(["flaky"], jobs=1, cache=cache)
        run_suite(["flaky"], jobs=1, cache=cache)
        assert len(calls) == 2  # re-attempted, never served from cache


class TestCaching:
    def test_second_run_is_served_from_cache(self, monkeypatch, tmp_path):
        calls = []

        def counted():
            calls.append(1)
            return _toy("a", 41)

        _toy_registry(monkeypatch, {"a": counted})
        cache = ResultCache(tmp_path)
        cold = run_suite(["a"], jobs=1, cache=cache)
        warm = run_suite(["a"], jobs=1, cache=cache)
        assert len(calls) == 1
        assert not cold[0].cached
        assert warm[0].cached
        assert warm[0].result == cold[0].result

    def test_no_cache_recomputes(self, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return _toy("a", 41)

        _toy_registry(monkeypatch, {"a": counted})
        run_suite(["a"], jobs=1, cache=None)
        run_suite(["a"], jobs=1, cache=None)
        assert len(calls) == 2


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="hard-crash isolation requires the fork start method",
)


class TestHardCrashIsolation:
    """A worker killed mid-run must not abort the suite (the PR-3
    error-isolation contract extended to ``BrokenProcessPool``)."""

    @needs_fork
    def test_os_exit_worker_fails_only_the_crasher(
        self, small_trace, monkeypatch
    ):
        def crasher():
            os._exit(1)  # simulates an OOM kill / SIGKILL mid-experiment

        experiments = {"a": lambda: _toy("a", 1), "crash": crasher}
        for name in ("b", "c", "d", "e"):
            experiments[name] = (lambda n: lambda: _toy(n, 2))(name)
        _toy_registry(monkeypatch, experiments)

        ids = ["a", "crash", "b", "c", "d", "e"]
        outcomes = run_suite(ids, jobs=2)

        # One outcome per experiment, in request order -- no exception.
        assert [o.experiment_id for o in outcomes] == ids
        assert failed_ids(outcomes) == ["crash"]
        crash = outcomes[1]
        assert "worker process died" in crash.error
        assert "crash" in crash.error
        for outcome in outcomes:
            if outcome.experiment_id != "crash":
                assert outcome.ok
                assert outcome.result.rows

    @needs_fork
    def test_pool_breakage_emits_obs_events(self, small_trace, monkeypatch):
        from repro.obs import MemorySink, get_obs, reset_obs

        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        try:

            def crasher():
                os._exit(1)

            _toy_registry(
                monkeypatch,
                {"ok": lambda: _toy("ok", 1), "crash": crasher},
            )
            outcomes = run_suite(["ok", "crash"], jobs=2)
        finally:
            reset_obs()
        assert failed_ids(outcomes) == ["crash"]
        assert of_kind(sink, "pool.broken")
        assert of_kind(sink, "pool.worker_died")
        spans = [
            e for e in of_kind(sink, "span") if e.get("name") == "experiment"
        ]
        assert {s["id"] for s in spans} == {"ok", "crash"}
        assert {s["status"] for s in spans} == {"ok", "error"}

    def test_in_process_exceptions_still_isolated(self, monkeypatch):
        # The soft-failure contract is unchanged by the pool rework.
        def broken():
            raise ValueError("soft failure")

        _toy_registry(
            monkeypatch, {"x": lambda: _toy("x", 1), "broken": broken}
        )
        outcomes = run_suite(["x", "broken"], jobs=1)
        assert failed_ids(outcomes) == ["broken"]


def _toy_chain(monkeypatch, experiments, readers):
    """A toy registry whose declared default-trace readers are ``readers``."""
    import repro.analysis.registry as registry_module

    _toy_registry(monkeypatch, experiments)
    monkeypatch.setattr(
        registry_module, "DEFAULT_TRACE_READERS", frozenset(readers)
    )


def _spy_on_generation(monkeypatch, log):
    """Append the pid of every default-trace generation to ``log``; forked
    workers inherit the spy and append to the same file."""
    default_config = context.default_trace_config()
    generate = context.generate_trace

    def spy(*, config):
        if config == default_config:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
        return generate(config=config)

    monkeypatch.setattr(context, "generate_trace", spy)


class TestDefaultTraceChain:
    """A pool runs the default trace's readers as one task, in the worker
    that generates the trace; the parent never generates it."""

    def test_readers_are_the_experiments_that_generate_the_trace(
        self, small_trace, monkeypatch, tmp_path
    ):
        # At 1,200 jobs the schedulers' own traces would be the default one.
        log = tmp_path / "generated"
        _spy_on_generation(monkeypatch, log)
        readers = set()
        for experiment_id in EXPERIMENTS:
            clear_caches()
            log.write_text("")
            run_experiment(experiment_id)
            if log.read_text():
                readers.add(experiment_id)
        assert readers == DEFAULT_TRACE_READERS

    @needs_fork
    def test_a_pool_run_never_generates_the_trace_in_the_parent(
        self, small_trace, monkeypatch, tmp_path
    ):
        log = tmp_path / "generated"
        _spy_on_generation(monkeypatch, log)
        clear_caches()
        outcomes = run_suite(
            ["table1", "fig5", "table4", "fig7", "census"], jobs=2
        )
        assert failed_ids(outcomes) == []
        (pid,) = log.read_text().split()
        assert int(pid) != os.getpid()

    @needs_fork
    @pytest.mark.parametrize(
        "ids, generations",
        [
            (["table1", "fig5", "table4", "fig6", "tenants"], 1),
            (["table1", "table2", "table4"], 0),
        ],
        ids=["with-readers", "trace-free"],
    )
    def test_the_event_log_shows_one_generation_per_pool_run(
        self, ids, generations, small_trace, tmp_path
    ):
        from repro.obs import JsonLinesSink, get_obs, reset_obs

        reset_obs()
        clear_caches()
        log = tmp_path / "events.jsonl"
        get_obs().add_sink(JsonLinesSink(log))
        try:
            outcomes = run_suite(ids, jobs=2)
        finally:
            reset_obs()
        assert failed_ids(outcomes) == []
        events = [json.loads(line) for line in log.read_text().splitlines()]
        spans = [
            e
            for e in events
            if e["kind"] == "span" and e["name"] == "trace.generate"
        ]
        assert len(spans) == generations
        (start,) = [e for e in events if e["kind"] == "pool.start"]
        chained = [e for e in EXPERIMENTS if e in DEFAULT_TRACE_READERS and e in ids]
        assert start["chained"] == chained
        assert start["tasks"] == len(ids) - len(chained) + bool(chained)
        assert start["workers"] == 2

    @needs_fork
    def test_a_raising_reader_does_not_stop_the_chain(self, monkeypatch):
        from repro.obs import MemorySink, get_obs, reset_obs

        def raiser():
            raise RuntimeError("reader failure")

        _toy_chain(
            monkeypatch,
            {
                "r1": lambda: _toy("r1", 1),
                "raiser": raiser,
                "r2": lambda: _toy("r2", 2),
                "t1": lambda: _toy("t1", 3),
            },
            readers=["r1", "raiser", "r2"],
        )
        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        try:
            outcomes = run_suite(["r1", "raiser", "r2", "t1"], jobs=2)
        finally:
            reset_obs()
        assert failed_ids(outcomes) == ["raiser"]
        assert "RuntimeError: reader failure" in outcomes[1].error
        assert [o.result.rows for o in outcomes if o.ok] == [
            [{"v": 1}], [{"v": 2}], [{"v": 3}]
        ]
        (start,) = of_kind(sink, "pool.start")
        assert start["chained"] == ["r1", "raiser", "r2"]
        assert start["tasks"] == 2
        assert of_kind(sink, "pool.broken") == []
        assert of_kind(sink, "pool.retry") == []

    @needs_fork
    def test_a_hard_crash_in_the_chain_fails_only_the_crasher(
        self, monkeypatch, tmp_path
    ):
        from repro.obs import MemorySink, get_obs, reset_obs

        crashes = tmp_path / "crashes"

        def crasher():
            with open(crashes, "a") as handle:
                handle.write("crash\n")
            os._exit(1)

        def trace_free(experiment_id):
            # Finishes only once the crasher has died twice (in the
            # chain, then in its own retry), so the broken pool always
            # leaves it unresolved and only its retry returns.
            def run():
                deadline = time.monotonic() + 60.0
                while not crashes.exists() or len(
                    crashes.read_text().split()
                ) < 2:
                    assert time.monotonic() < deadline, "no second crash"
                    time.sleep(0.01)
                return _toy(experiment_id, 2)

            return run

        ids = ["r1", "crash", "r2", "t1", "t2"]
        _toy_chain(
            monkeypatch,
            {
                "r1": lambda: _toy("r1", 1),
                "crash": crasher,
                "r2": lambda: _toy("r2", 1),
                "t1": trace_free("t1"),
                "t2": trace_free("t2"),
            },
            readers=["r1", "crash", "r2"],
        )
        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        try:
            outcomes = run_suite(ids, jobs=2)
        finally:
            reset_obs()
        assert [o.experiment_id for o in outcomes] == ids
        assert failed_ids(outcomes) == ["crash"]
        assert "worker process died" in outcomes[1].error
        (broken,) = of_kind(sink, "pool.broken")
        assert broken["unresolved"] == ids
        assert [e["experiment"] for e in of_kind(sink, "pool.retry")] == ids
        assert [e["experiment"] for e in of_kind(sink, "pool.worker_died")] == [
            "crash"
        ]


#: A suite whose pool workers block in their experiments; it prints the
#: worker pids once both are up.
_BLOCKED_SUITE = textwrap.dedent(
    """
    import multiprocessing, threading, time
    from repro.analysis import registry
    from repro.runtime import run_suite

    def blocked():
        time.sleep(60)

    registry.EXPERIMENTS.update({"a": blocked, "b": blocked, "c": blocked})

    def report():
        while len(multiprocessing.active_children()) < 2:
            time.sleep(0.05)
        pids = [p.pid for p in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)

    threading.Thread(target=report, daemon=True).start()
    run_suite(["a", "b", "c"], jobs=2, cache=None)
    """
)


def _alive(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestWorkersDieWithTheirParent:
    """A suite killed by a signal leaves no pool worker running: each
    worker exits by itself once its parent is gone."""

    @needs_fork
    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc"
    )
    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"]
    )
    def test_no_worker_outlives_a_killed_suite(self, signum):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env[TRACE_JOBS_ENV_VAR] = SMALL_TRACE
        parent = subprocess.Popen(
            [sys.executable, "-c", _BLOCKED_SUITE],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        workers = []
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60.0)
            assert ready, "the suite never reported its workers"
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            parent.send_signal(signum)
            parent.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


@pytest.mark.slow
class TestFullSuite:
    def test_warm_report_is_byte_identical(self, small_trace, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_suite(jobs=1, cache=cache)
        warm = run_suite(jobs=1, cache=cache)
        assert failed_ids(cold) == []
        assert all(o.cached for o in warm)
        assert render_outcomes(warm) == render_outcomes(cold)

    def test_parallel_matches_serial_for_every_experiment(self, small_trace):
        ids = list(EXPERIMENTS)
        serial = run_suite(ids, jobs=1)
        parallel = run_suite(ids, jobs=2)
        assert failed_ids(serial) == []
        assert failed_ids(parallel) == []
        for s, p in zip(serial, parallel):
            assert s.experiment_id == p.experiment_id
            assert p.result.render() == s.result.render()


class TestQuietLibrary:
    def test_injected_faults_write_nothing_to_stderr(self, capfd):
        from repro.obs import reset_obs

        # Start from the library default: warnings and errors on stderr.
        reset_obs()
        try:
            outcomes = run_suite(["faults_scenarios"], cache=None)
        finally:
            reset_obs()
        assert failed_ids(outcomes) == []
        assert capfd.readouterr().err == ""
