"""Parallel, cached, error-isolated suite execution."""

import multiprocessing
import os

import pytest

from repro.analysis.context import TRACE_JOBS_ENV_VAR, clear_caches
from repro.analysis.registry import EXPERIMENTS
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
