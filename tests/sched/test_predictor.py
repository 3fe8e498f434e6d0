"""Model-predicted runtimes: determinism, clamping, architecture effects."""

import math

import pytest

from repro.core.architectures import Architecture
from repro.sched import ModelRuntimePredictor
from repro.sched.predictor import sample_durations
from repro.trace.columnar import ColumnarTrace, write_columnar
from repro.trace.generator import TraceConfig, generate_trace

from sched_helpers import make_job

NON_FINITE = [math.nan, math.inf]


class TestValidation:
    def test_median_steps_positive(self):
        with pytest.raises(ValueError):
            ModelRuntimePredictor(median_steps=0.0)

    def test_sigma_non_negative(self):
        with pytest.raises(ValueError):
            ModelRuntimePredictor(sigma=-0.1)

    def test_max_hours_positive(self):
        with pytest.raises(ValueError):
            ModelRuntimePredictor(max_hours=0.0)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["median_steps", "sigma", "max_hours"])
    def test_rejects_non_finite(self, field, value):
        # A NaN step budget or spread made every duration NaN, and a
        # NaN duration stalled the replay forever.
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            ModelRuntimePredictor(**{field: value})


class TestPrediction:
    def test_deterministic_per_job_id(self):
        predictor = ModelRuntimePredictor()
        job = make_job(42)
        assert predictor.duration_hours(job) == predictor.duration_hours(job)
        again = ModelRuntimePredictor()
        assert predictor.duration_hours(job) == again.duration_hours(job)

    def test_seed_changes_step_budget(self):
        job = make_job(42)
        first = ModelRuntimePredictor(seed=1).num_steps(job.job_id)
        second = ModelRuntimePredictor(seed=2).num_steps(job.job_id)
        assert first != second

    def test_step_budget_is_architecture_independent(self):
        # The same job id keeps its training work across deployments;
        # only the step *time* changes.  This is what makes the what-if
        # comparison apples-to-apples.
        predictor = ModelRuntimePredictor()
        assert predictor.num_steps(7) == predictor.num_steps(7)

    def test_faster_architecture_predicts_shorter_job(self):
        predictor = ModelRuntimePredictor(max_hours=None)
        heavy_sync = make_job(
            0, Architecture.PS_WORKER, 16, weight_traffic=4e9
        )
        light_sync = make_job(
            0, Architecture.ALLREDUCE_LOCAL, 8, weight_traffic=4e7
        )
        assert predictor.duration_hours(light_sync) < predictor.duration_hours(
            heavy_sync
        )

    def test_clamp(self):
        job = make_job(0, Architecture.PS_WORKER, 16, weight_traffic=1e12)
        clamped = ModelRuntimePredictor(max_hours=1.0)
        assert clamped.duration_hours(job) == 1.0
        unclamped = ModelRuntimePredictor(max_hours=None)
        assert unclamped.duration_hours(job) > 1.0

    def test_durations_keyed_by_job_id(self):
        predictor = ModelRuntimePredictor()
        jobs = [make_job(3), make_job(8)]
        durations = predictor.durations(jobs)
        assert set(durations) == {3, 8}
        assert all(value > 0 for value in durations.values())


class TestBatchDurations:
    """The vectorized whole-trace path against the scalar oracle."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(config=TraceConfig(num_jobs=400, seed=23))

    def test_batch_matches_scalar_exactly(self, trace):
        predictor = ModelRuntimePredictor()
        assert predictor.durations(trace) == {
            job.job_id: predictor.duration_hours(job) for job in trace
        }

    def test_columnar_views_match_scalar_exactly(self, trace, tmp_path):
        write_columnar(trace, tmp_path / "trace")
        views = ColumnarTrace.open(tmp_path / "trace").iter_views()
        predictor = ModelRuntimePredictor()
        assert predictor.durations(views) == {
            job.job_id: predictor.duration_hours(job) for job in trace
        }

    def test_empty_batch(self):
        assert ModelRuntimePredictor().durations([]) == {}
        assert ModelRuntimePredictor().batch_duration_hours([]) == {}


class TestSampleDurations:
    def test_deterministic_per_seed(self, small_trace):
        first = sample_durations(small_trace, seed=3)
        second = sample_durations(small_trace, seed=3)
        assert first == second

    def test_different_seeds_differ(self, small_trace):
        assert sample_durations(small_trace, seed=3) != sample_durations(
            small_trace, seed=4
        )

    def test_positive(self, small_trace):
        assert all(d > 0 for d in sample_durations(small_trace).values())

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_durations([], median_hours=0.0)
        with pytest.raises(ValueError):
            sample_durations([], sigma=-0.1)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["median_hours", "sigma"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            sample_durations([make_job(0)], **{field: value})
