"""Straggler modeling for synchronous training."""

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.core.timemodel import estimate_breakdown
from repro.sim.stragglers import (
    JitterModel,
    _expected_max_lognormal,
    _expected_max_lognormal_curve,
    expected_straggler_factor,
    straggled_step_time,
    synchronization_penalty_curve,
)


def ps_job(num_cnodes=16):
    return WorkloadFeatures(
        name="job",
        architecture=Architecture.PS_WORKER,
        num_cnodes=num_cnodes,
        batch_size=128,
        flop_count=2e12,
        memory_access_bytes=20e9,
        input_bytes=10e6,
        weight_traffic_bytes=500e6,
        dense_weight_bytes=500e6,
    )


class TestStragglerFactor:
    def test_single_replica_is_one(self):
        assert expected_straggler_factor(1) == 1.0

    def test_zero_jitter_is_one(self):
        assert expected_straggler_factor(64, JitterModel(sigma=0.0)) == 1.0

    def test_grows_with_cluster_size(self):
        factors = [
            expected_straggler_factor(n, JitterModel(sigma=0.1))
            for n in (2, 8, 32, 128)
        ]
        assert factors == sorted(factors)
        assert factors[0] > 1.0

    def test_grows_with_jitter(self):
        calm = expected_straggler_factor(32, JitterModel(sigma=0.05))
        noisy = expected_straggler_factor(32, JitterModel(sigma=0.2))
        assert noisy > calm

    def test_reproducible(self):
        jitter = JitterModel(sigma=0.1, seed=42)
        assert expected_straggler_factor(16, jitter) == (
            expected_straggler_factor(16, jitter)
        )

    def test_magnitude_sane(self):
        # 10% jitter over 128 replicas: tens of percent, not multiples.
        factor = expected_straggler_factor(128, JitterModel(sigma=0.1))
        assert 1.2 < factor < 1.6

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_straggler_factor(0)
        with pytest.raises(ValueError):
            JitterModel(sigma=-0.1)
        with pytest.raises(ValueError):
            JitterModel(samples=0)


class TestStraggledStepTime:
    def test_never_faster_than_baseline(self, hardware):
        features = ps_job()
        baseline = estimate_breakdown(features, hardware).total
        assert straggled_step_time(features, hardware) >= baseline

    def test_only_compute_stretches(self, hardware):
        features = ps_job()
        breakdown = estimate_breakdown(features, hardware)
        straggled = straggled_step_time(
            features, hardware, JitterModel(sigma=0.15)
        )
        factor = expected_straggler_factor(16, JitterModel(sigma=0.15))
        expected = (
            breakdown.data_io
            + breakdown.computation * factor
            + breakdown.weight_total
        )
        assert straggled == pytest.approx(expected)


class TestPenaltyCurve:
    def test_inflation_monotone_in_cnodes(self, hardware):
        rows = synchronization_penalty_curve(
            ps_job(), hardware, cnode_counts=[1, 4, 16, 64]
        )
        inflations = [row["step_inflation"] for row in rows]
        assert inflations == sorted(inflations)
        assert inflations[0] == pytest.approx(1.0)

    def test_inflation_grows_out_to_256_replicas(self, hardware):
        rows = synchronization_penalty_curve(
            ps_job(), hardware, [1, 8, 64, 256], JitterModel(sigma=0.1)
        )
        assert rows[-1]["step_inflation"] > rows[0]["step_inflation"]

    def test_inflation_bounded_by_factor(self, hardware):
        # The step inflates less than the compute factor because the
        # communication part does not jitter.
        rows = synchronization_penalty_curve(
            ps_job(), hardware, cnode_counts=[64]
        )
        row = rows[0]
        assert 1.0 < row["step_inflation"] < row["straggler_factor"]

    def test_options_reach_the_breakdown(self, hardware):
        """Regression: the curve used to drop ``options`` on the floor,
        silently evaluating non-default model options at the paper
        defaults."""
        from repro.core.timemodel import ModelOptions

        job = WorkloadFeatures(
            name="ring",
            architecture=Architecture.ALLREDUCE_LOCAL,
            num_cnodes=4,
            batch_size=128,
            flop_count=2e12,
            memory_access_bytes=20e9,
            input_bytes=10e6,
            weight_traffic_bytes=500e6,
            dense_weight_bytes=500e6,
        )
        options = ModelOptions(allreduce_ring_factor=True)
        defaults = synchronization_penalty_curve(
            job, hardware, cnode_counts=[4]
        )
        ringed = synchronization_penalty_curve(
            job, hardware, cnode_counts=[4], options=options
        )
        assert defaults[0]["step_inflation"] != ringed[0]["step_inflation"]
        # Same factor (jitter does not depend on the options), so the
        # difference comes entirely from the breakdown evaluation.
        assert defaults[0]["straggler_factor"] == (
            ringed[0]["straggler_factor"]
        )


class TestMemoization:
    """The 4000-sample Monte Carlo must run once per distinct
    ``(sigma, samples, seed, n)``, not once per query."""

    def test_penalty_curve_hits_the_memo(self, hardware):
        _expected_max_lognormal_curve.cache_clear()
        counts = [2, 4, 8, 16]
        rows = synchronization_penalty_curve(
            ps_job(), hardware, cnode_counts=counts
        )
        info = _expected_max_lognormal_curve.cache_info()
        # One batched Monte Carlo for the whole curve, not one draw
        # per cNode count.
        assert info.misses == 1
        # A second curve over the same counts is a memo hit.
        rows_again = synchronization_penalty_curve(
            ps_job(), hardware, cnode_counts=counts
        )
        info = _expected_max_lognormal_curve.cache_info()
        assert info.misses == 1
        assert info.hits >= 1
        assert rows_again == rows

    def test_memoized_factor_matches_direct_monte_carlo(self):
        import numpy as np

        jitter = JitterModel(sigma=0.12, samples=2500, seed=77)
        rng = np.random.default_rng(jitter.seed)
        draws = rng.lognormal(
            mean=0.0, sigma=jitter.sigma, size=(jitter.samples, 24)
        )
        expected = float(draws.max(axis=1).mean())
        assert expected_straggler_factor(24, jitter) == expected

    def test_curve_rows_match_batched_monte_carlo_exactly(self, hardware):
        # The curve factors come from ONE (samples, max_count) draw:
        # E[max of the first n columns] for each n, via the running
        # maximum.  Verify against a direct numpy recomputation.
        import numpy as np

        features = ps_job()
        jitter = JitterModel()
        counts = [1, 8, 32]
        rng = np.random.default_rng(jitter.seed)
        draws = rng.lognormal(
            mean=0.0, sigma=jitter.sigma, size=(jitter.samples, max(counts))
        )
        curve = np.maximum.accumulate(draws, axis=1).mean(axis=0)
        expected_factors = {
            count: 1.0 if count == 1 else float(curve[count - 1])
            for count in counts
        }
        for row in synchronization_penalty_curve(
            features, hardware, cnode_counts=counts
        ):
            count = row["num_cnodes"]
            factor = expected_factors[count]
            assert row["straggler_factor"] == factor
            deployed = features.with_architecture(
                features.architecture, num_cnodes=count
            )
            breakdown = estimate_breakdown(deployed, hardware)
            straggled = (
                breakdown.data_io
                + breakdown.computation * factor
                + breakdown.weight_total
            )
            assert row["step_inflation"] == straggled / breakdown.total

    def test_single_replica_and_zero_jitter_bypass_the_memo(self):
        _expected_max_lognormal.cache_clear()
        assert expected_straggler_factor(1) == 1.0
        assert expected_straggler_factor(64, JitterModel(sigma=0.0)) == 1.0
        assert _expected_max_lognormal.cache_info().misses == 0
