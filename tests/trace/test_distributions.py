"""The trace's parametric draws, checked on generated traces.

The generator draws every marginal inline in one loop
(:meth:`repro.trace.generator.ClusterTraceGenerator.rows`), and
:class:`~repro.trace.generator.TraceConfig` checks each draw's
parameters once, naming the field.  These tests pin what each kind of
draw produces: log-normal medians, log-uniform ranges, beta shares,
clipped integer cNode counts and power-of-two batch sizes.
"""

import numpy as np
import pytest

from repro.core.architectures import Architecture
from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
from repro.core.hardware import pai_default_hardware
from repro.trace.generator import TraceConfig, generate_trace


def features(config, *architectures):
    """The feature tuples of ``config``'s trace, of the given types."""
    return [
        job.features
        for job in generate_trace(config=config)
        if job.workload_type in architectures
    ]


LOCAL = (
    Architecture.SINGLE,
    Architecture.LOCAL_CENTRALIZED,
    Architecture.ALLREDUCE_LOCAL,
)


class TestLognormal:
    """1w1g and local jobs draw their weight size log-normally."""

    def test_median(self):
        config = TraceConfig(num_jobs=4000, seed=42, small_weight_sigma=1.0)
        weights = [f.dense_weight_bytes for f in features(config, *LOCAL)]
        assert np.median(weights) == pytest.approx(25e6, rel=0.1)

    def test_zero_sigma_is_deterministic(self):
        config = TraceConfig(num_jobs=300, seed=42, small_weight_sigma=0.0)
        for f in features(config, *LOCAL):
            assert f.dense_weight_bytes == pytest.approx(25e6)

    def test_rejects_nonpositive_median(self):
        with pytest.raises(ValueError, match="small_weight_median"):
            TraceConfig(small_weight_median=0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="small_weight_sigma"):
            TraceConfig(small_weight_sigma=-0.5)


def large_weights(config):
    """At-rest weight bytes of the large (log-uniform) PS models."""
    return [
        f.dense_weight_bytes + f.embedding_weight_bytes
        for f in features(config, Architecture.PS_WORKER)
        if f.embedding_weight_bytes > 0
    ]


class TestLoguniform:
    """Large PS models draw their size log-uniformly."""

    def test_range(self):
        weights = large_weights(TraceConfig(num_jobs=4000, seed=42))
        assert weights
        assert all(
            10e9 * (1 - 1e-12) <= w <= 300e9 * (1 + 1e-12) for w in weights
        )

    def test_log_median(self):
        config = TraceConfig(
            num_jobs=4000,
            seed=42,
            ps_large_weight_low=1e9,
            ps_large_weight_high=1e13,
        )
        assert np.median(large_weights(config)) == pytest.approx(1e11, rel=0.3)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="ps_large_weight_low"):
            TraceConfig(ps_large_weight_low=0.0)
        with pytest.raises(ValueError, match="ps_large_weight_low"):
            TraceConfig(ps_large_weight_low=2e12, ps_large_weight_high=1e12)


def memory_bound_shares(config):
    """Each job's memory-bound share beta of T_c, backed out of its
    FLOP count and memory access volume."""
    gpu = pai_default_hardware().gpu
    efficiency = PAPER_DEFAULT_EFFICIENCY
    shares = []
    for f in features(config, *Architecture):
        flop_time = f.flop_count / (gpu.peak_flops * efficiency.compute)
        memory_time = f.memory_access_bytes / (
            gpu.memory_bandwidth * efficiency.memory
        )
        shares.append(memory_time / (flop_time + memory_time))
    return shares


class TestBetaWithMean:
    """Every job splits T_c by a beta share with the configured mean."""

    def test_mean(self):
        shares = memory_bound_shares(TraceConfig(num_jobs=4000, seed=42))
        assert np.mean(shares) == pytest.approx(0.62, abs=0.02)

    def test_range(self):
        config = TraceConfig(num_jobs=300, seed=42, beta_mean=0.3)
        shares = memory_bound_shares(config)
        assert all(0.0 < s < 1.0 for s in shares)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError, match="beta_mean"):
            TraceConfig(beta_mean=0.0)
        with pytest.raises(ValueError, match="beta_mean"):
            TraceConfig(beta_mean=1.0)

    def test_rejects_bad_concentration(self):
        with pytest.raises(ValueError, match="beta_concentration"):
            TraceConfig(beta_concentration=0.0)


class TestClippedLognormalInt:
    """PS jobs draw their cNode count log-normally, rounded and clipped
    to ``[1, ps_cnodes_max]``."""

    def test_clipping(self):
        config = TraceConfig(num_jobs=2000, seed=42, ps_cnodes_max=16)
        counts = [f.num_cnodes for f in features(config, Architecture.PS_WORKER)]
        assert all(isinstance(n, int) and 1 <= n <= 16 for n in counts)
        assert 16 in counts

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="ps_cnodes_max"):
            TraceConfig(ps_cnodes_max=0)


class TestPowerOfTwo:
    """Batch sizes are powers of two: 2^4..2^10 for local jobs and
    2^5..2^11 for PS jobs."""

    def test_values(self):
        config = TraceConfig(num_jobs=1000, seed=42)
        local = {f.batch_size for f in features(config, *LOCAL)}
        ps = {f.batch_size for f in features(config, Architecture.PS_WORKER)}
        assert local <= {1 << e for e in range(4, 11)} and len(local) > 3
        assert ps <= {1 << e for e in range(5, 12)} and len(ps) > 3
