"""``run_suite`` runs a failing experiment once: the suite is
deterministic, so a failure reproduces and is reported, not retried."""

from repro.analysis.result import ExperimentResult
from repro.runtime import failed_ids, run_suite


def _toy_registry(monkeypatch, experiments):
    import repro.analysis.registry as registry_module

    monkeypatch.setattr(registry_module, "EXPERIMENTS", experiments)


def _toy(experiment_id, value):
    return ExperimentResult(
        experiment=experiment_id, title="toy", rows=[{"v": value}]
    )


def _flaky(experiment_id, failures, calls):
    """An experiment that fails its first ``failures`` calls."""

    def run():
        calls.append(experiment_id)
        if calls.count(experiment_id) <= failures:
            raise RuntimeError(f"transient failure in {experiment_id}")
        return _toy(experiment_id, 1)

    return run


class TestRetries:
    def test_default_is_no_retry(self, monkeypatch):
        calls = []
        _toy_registry(monkeypatch, {"flaky": _flaky("flaky", 1, calls)})
        outcomes = run_suite(["flaky"], jobs=1)
        assert failed_ids(outcomes) == ["flaky"]
        assert calls == ["flaky"]
