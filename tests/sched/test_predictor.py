"""Model-predicted runtimes: determinism, clamping, architecture effects."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.architectures import Architecture
from repro.sched import ModelRuntimePredictor
from repro.sched.predictor import (
    _lognormals,
    _PresetSeedSequence,
    _seed_states,
    sample_durations,
)
from repro.trace.columnar import ColumnarTrace, write_columnar
from repro.trace.generator import TraceConfig, generate_trace

from scalar_predictor import duration_hours, num_steps, step_time_seconds
from sched_helpers import make_job

NON_FINITE = [math.nan, math.inf]
#: Where an id or a seed grows from one 32-bit entropy word to two, and
#: the largest id a signed 64-bit column holds.
WORD_EDGES = [0, 2**32 - 1, 2**32, 2**63 - 1]
NEGATIVE_SEEDS = [-1, -(2**40)]
NON_INTEGER_SEEDS = [1.5, 7.0, "7", None]
#: The seeding pass restates numpy's SeedSequence hash, so a mismatch
#: names the numpy release it was found on.
NUMPY = f"numpy {np.__version__}"


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

    @pytest.mark.parametrize("seed", NEGATIVE_SEEDS)
    def test_rejects_negative_seed(self, seed):
        # It used to construct, and the replay then failed inside numpy
        # with a bare "expected non-negative integer".
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            ModelRuntimePredictor(seed=seed)

    @pytest.mark.parametrize("seed", NON_INTEGER_SEEDS)
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            ModelRuntimePredictor(seed=seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        job = make_job(42)
        assert ModelRuntimePredictor(seed=np.int64(3)).durations(
            [job]
        ) == ModelRuntimePredictor(seed=3).durations([job])


class TestPrediction:
    def test_deterministic_per_job_id(self):
        predictor = ModelRuntimePredictor()
        job = make_job(42)
        assert predictor.durations([job]) == predictor.durations([job])
        again = ModelRuntimePredictor()
        assert predictor.durations([job]) == again.durations([job])

    def test_seed_changes_step_budget(self):
        job = make_job(42)
        first = ModelRuntimePredictor(seed=1, max_hours=None).durations([job])
        second = ModelRuntimePredictor(seed=2, max_hours=None).durations([job])
        assert first != second

    def test_step_budget_is_architecture_independent(self):
        # The same job id keeps its training work across deployments;
        # only the step *time* changes.  This is what makes the what-if
        # comparison apples-to-apples.
        predictor = ModelRuntimePredictor(max_hours=None)
        for job in (
            make_job(7, Architecture.PS_WORKER, 16, weight_traffic=4e9),
            make_job(7, Architecture.ALLREDUCE_LOCAL, 8, weight_traffic=4e7),
        ):
            seconds = predictor.durations([job])[7] * 3600.0
            budget = seconds / step_time_seconds(job.features)
            assert budget == pytest.approx(num_steps(predictor, 7), rel=1e-12)

    def test_faster_architecture_predicts_shorter_job(self):
        predictor = ModelRuntimePredictor(max_hours=None)
        heavy_sync = make_job(
            0, Architecture.PS_WORKER, 16, weight_traffic=4e9
        )
        light_sync = make_job(
            0, Architecture.ALLREDUCE_LOCAL, 8, weight_traffic=4e7
        )
        assert predictor.durations([light_sync])[0] < predictor.durations(
            [heavy_sync]
        )[0]

    def test_clamp(self):
        job = make_job(0, Architecture.PS_WORKER, 16, weight_traffic=1e12)
        clamped = ModelRuntimePredictor(max_hours=1.0)
        assert clamped.durations([job])[0] == 1.0
        # An integer cap still clamps to a float.
        int_capped = ModelRuntimePredictor(max_hours=1)
        assert type(int_capped.durations([job])[0]) is float
        unclamped = ModelRuntimePredictor(max_hours=None)
        assert unclamped.durations([job])[0] > 1.0

    def test_durations_keyed_by_job_id(self):
        predictor = ModelRuntimePredictor()
        jobs = [make_job(3), make_job(8)]
        durations = predictor.durations(jobs)
        assert set(durations) == {3, 8}
        assert all(value > 0 for value in durations.values())


class TestBatchDurations:
    """The vectorized whole-trace path against the per-job oracle."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(config=TraceConfig(num_jobs=400, seed=23))

    def test_batch_matches_scalar_exactly(self, trace):
        predictor = ModelRuntimePredictor()
        assert predictor.durations(trace) == {
            job.job_id: duration_hours(predictor, job) for job in trace
        }

    def test_columnar_views_match_scalar_exactly(self, trace, tmp_path):
        write_columnar(trace, tmp_path / "trace")
        views = ColumnarTrace.open(tmp_path / "trace").iter_views()
        predictor = ModelRuntimePredictor()
        assert predictor.durations(views) == {
            job.job_id: duration_hours(predictor, job) for job in trace
        }

    def test_empty_batch(self):
        assert ModelRuntimePredictor().durations([]) == {}
        assert ModelRuntimePredictor().batch_duration_hours([]) == {}


class TestSeedStates:
    """The whole-trace seeding pass against numpy's own SeedSequence."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**128 - 1),
        job_ids=st.lists(st.integers(0, 2**63 - 1), max_size=12),
    )
    @example(seed=0, job_ids=WORD_EDGES)
    @example(seed=2**32 - 1, job_ids=WORD_EDGES)
    @example(seed=2**32, job_ids=WORD_EDGES)
    @example(seed=2**63 - 1, job_ids=WORD_EDGES)
    @example(seed=7, job_ids=[2**64 - 1, 2**64, 2**100 + 5, 3])
    def test_words_equal_seed_sequence(self, seed, job_ids):
        states = _seed_states(seed, job_ids)
        assert states.dtype == np.uint64
        assert states.shape == (len(job_ids), 4)
        assert states.flags.c_contiguous
        for row, job_id in zip(states, job_ids):
            expected = np.random.SeedSequence((seed, job_id)).generate_state(
                4, np.uint64
            )
            assert row.tolist() == expected.tolist(), NUMPY

    def test_negative_id_rejected_as_numpy_does(self):
        with pytest.raises(ValueError, match="non-negative"):
            _seed_states(7, [3, -1])

    def test_empty(self):
        assert _seed_states(7, []).shape == (0, 4)

    @pytest.mark.parametrize(
        "n_words, dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64)]
    )
    def test_preset_serves_only_a_pcg64_seed(self, n_words, dtype):
        preset = _PresetSeedSequence(_seed_states(7, [1])[0])
        with pytest.raises(ValueError):
            preset.generate_state(n_words, dtype)

    def test_budgets_equal_default_rng_bit_for_bit(self, small_trace):
        predictor = ModelRuntimePredictor(seed=11)
        mean = math.log(predictor.median_steps)
        job_ids = [job.job_id for job in small_trace] + WORD_EDGES
        budgets = _lognormals(predictor.seed, job_ids, mean, predictor.sigma)
        expected = [
            np.random.default_rng((11, job_id)).lognormal(
                mean=mean, sigma=predictor.sigma
            )
            for job_id in job_ids
        ]
        assert [budget.hex() for budget in budgets] == [
            float(value).hex() for value in expected
        ], NUMPY
        assert [budget.hex() for budget in budgets] == [
            num_steps(predictor, job_id).hex() for job_id in job_ids
        ]


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

    def test_matches_per_job_default_rng(self, small_trace):
        durations = sample_durations(small_trace, seed=3)
        expected = {}
        for job in small_trace:
            rng = np.random.default_rng((3, job.job_id))
            expected[job.job_id] = float(
                rng.lognormal(mean=math.log(2.0), sigma=1.2)
            )
        assert list(durations) == list(expected)
        assert [value.hex() for value in durations.values()] == [
            value.hex() for value in expected.values()
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_durations([], median_hours=0.0)
        with pytest.raises(ValueError):
            sample_durations([], sigma=-0.1)

    @pytest.mark.parametrize("seed", NEGATIVE_SEEDS)
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            sample_durations([make_job(0)], seed=seed)

    @pytest.mark.parametrize("seed", NON_INTEGER_SEEDS)
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            sample_durations([make_job(0)], seed=seed)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["median_hours", "sigma"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            sample_durations([make_job(0)], **{field: value})
