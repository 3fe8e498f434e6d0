"""The observation and inference experiment modules."""

import pytest

from repro.analysis.context import default_trace
from repro.analysis.inference_report import run as run_inference
from repro.analysis.observations import run as run_observations


@pytest.fixture(scope="module")
def jobs():
    return default_trace(8000)


class TestObservations:
    def test_all_bullets_present(self, jobs):
        result = run_observations(jobs)
        assert len(result.rows) == 9
        observations = [row["observation"] for row in result.rows]
        assert any("distributed training" in o for o in observations)
        assert any("Ethernet" in o for o in observations)

    def test_distributed_share_above_85(self, jobs):
        result = run_observations(jobs)
        row = next(
            r for r in result.rows if "distributed training" in r["observation"]
        )
        assert float(row["measured"].rstrip("%")) > 85.0

    def test_every_row_has_paper_reference(self, jobs):
        result = run_observations(jobs)
        assert all(row["paper"] for row in result.rows)


class TestInferenceReport:
    def test_six_models(self):
        result = run_inference()
        assert len(result.rows) == 6

    def test_fit_flags(self):
        result = run_inference()
        by_model = {row["model"]: row for row in result.rows}
        assert not by_model["Multi-Interests"]["fits_one_gpu"]
        assert by_model["ResNet50"]["fits_one_gpu"]
        assert by_model["ResNet50"]["bottleneck"] == "compute_bound"

    def test_latency_columns_when_fitting(self):
        result = run_inference()
        for row in result.rows:
            if row["fits_one_gpu"]:
                assert row["latency_ms_b1"] > 0
                assert row["throughput_b128"] > 0

    def test_registered_in_cli(self):
        from repro.analysis.registry import experiment_ids

        assert "observations" in experiment_ids()
        assert "inference" in experiment_ids()
