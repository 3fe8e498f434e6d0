"""Property-based invariants of the statistics toolkit."""

from hypothesis import given
from hypothesis import strategies as st

from repro.trace.statistics import EmpiricalCDF, StreamingCDF

samples = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=200,
)


class TestEmpiricalCDF:
    @given(data=samples)
    def test_cumulative_monotone_and_normalized(self, data):
        cdf = EmpiricalCDF.from_samples(data)
        assert list(cdf.cumulative) == sorted(cdf.cumulative)
        assert abs(cdf.cumulative[-1] - 1.0) < 1e-9

    @given(data=samples)
    def test_values_sorted(self, data):
        cdf = EmpiricalCDF.from_samples(data)
        assert list(cdf.values) == sorted(cdf.values)

    @given(data=samples, x=st.floats(allow_nan=False, min_value=-2e9, max_value=2e9))
    def test_probability_bounds(self, data, x):
        cdf = EmpiricalCDF.from_samples(data)
        assert 0.0 <= cdf.probability_at(x) <= 1.0

    @given(data=samples, q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_is_a_sample(self, data, q):
        cdf = EmpiricalCDF.from_samples(data)
        assert cdf.quantile(q) in cdf.values

    @given(data=samples)
    def test_quantile_probability_galois(self, data):
        """P(X <= quantile(q)) >= q for every sample q on the grid."""
        cdf = EmpiricalCDF.from_samples(data)
        for q in (0.1, 0.5, 0.9):
            assert cdf.probability_at(cdf.quantile(q)) >= q - 1e-9

    @given(data=samples)
    def test_extremes(self, data):
        cdf = EmpiricalCDF.from_samples(data)
        assert cdf.probability_at(min(data) - 1.0) == 0.0
        assert cdf.probability_at(max(data) + 1.0) == 1.0

    @given(
        data=samples,
        weights_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_weighted_cdf_normalized(self, data, weights_seed):
        import numpy as np

        rng = np.random.default_rng(weights_seed)
        weights = rng.uniform(0.1, 10.0, size=len(data)).tolist()
        cdf = EmpiricalCDF.from_samples(data, weights)
        assert abs(cdf.cumulative[-1] - 1.0) < 1e-9


class TestMergedVsBatch:
    """Splitting a population and merging equals one-shot construction."""

    @given(data=samples, split=st.integers(min_value=0, max_value=200))
    def test_streaming_merge_equals_batch_under_capacity(self, data, split):
        split = min(split, len(data))
        left, right = StreamingCDF(capacity=256), StreamingCDF(capacity=256)
        left.update_many(data[:split])
        right.update_many(data[split:])
        merged = left.merge(right)
        assert merged.count == len(data)
        batch = EmpiricalCDF.from_samples(data)
        # Population fits the sketch: the merged CDF is exact.
        assert abs(merged.to_cdf().cumulative[-1] - 1.0) < 1e-12
        for q in (0.05, 0.5, 0.95):
            assert merged.quantile(q) == batch.quantile(q)

    @given(data=st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=40,
        max_size=200,
    ))
    def test_compacted_sketch_bounds_rank_error(self, data):
        sketch = StreamingCDF(capacity=16)
        sketch.update_many(data)
        batch = EmpiricalCDF.from_samples(data)
        cdf = sketch.to_cdf()
        assert abs(cdf.cumulative[-1] - 1.0) < 1e-12
        # Every sketched quantile sits within a few rank slots of truth;
        # under ties a value's rank is an interval, so bound both sides.
        slack = (3.0 / 16) * len(data) + 1
        for q in (0.25, 0.5, 0.75):
            value = sketch.quantile(q)
            at_most = sum(1 for sample in data if sample <= value)
            at_least = sum(1 for sample in data if sample >= value)
            assert at_most >= q * len(data) - slack, (q, value)
            assert at_least >= (1.0 - q) * len(data) - slack, (q, value)

    @given(data=samples)
    def test_streaming_extremes_are_exact(self, data):
        sketch = StreamingCDF(capacity=8)
        sketch.update_many(data)
        assert sketch.quantile(0.0) == min(data)
        assert sketch.quantile(1.0) == max(data)
