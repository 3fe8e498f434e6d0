"""Empirical CDFs, batch and streaming."""

import pytest

from repro.trace.statistics import EmpiricalCDF, StreamingCDF


class TestEmpiricalCDF:
    def test_basic_probabilities(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.probability_at(0.5) == 0.0
        assert cdf.probability_at(2.0) == pytest.approx(0.5)
        assert cdf.probability_at(10.0) == pytest.approx(1.0)

    def test_median(self):
        cdf = EmpiricalCDF.from_samples([5.0, 1.0, 3.0])
        assert cdf.median == 3.0

    def test_quantiles(self):
        cdf = EmpiricalCDF.from_samples(list(range(1, 101)))
        assert cdf.quantile(0.9) == 90
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 100

    def test_quantile_out_of_range(self):
        cdf = EmpiricalCDF.from_samples([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_weighted(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0], weights=[1.0, 9.0])
        assert cdf.probability_at(1.0) == pytest.approx(0.1)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_samples([1.0, 2.0], weights=[1.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_samples([1.0], weights=[-1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_samples([])

    def test_series_downsamples(self):
        cdf = EmpiricalCDF.from_samples(list(range(1000)))
        series = cdf.series(points=10)
        assert len(series) == 10
        assert series[0][0] == 0
        assert series[-1][1] == pytest.approx(1.0)

    def test_series_small_population(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0])
        assert len(cdf.series(points=10)) == 2

    def test_series_rejects_one_point(self):
        cdf = EmpiricalCDF.from_samples([1.0])
        with pytest.raises(ValueError):
            cdf.series(points=1)

    def test_nan_samples_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCDF.from_samples([1.0, float("nan"), 2.0])

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCDF.from_samples([1.0, 2.0], weights=[1.0, float("nan")])

    def test_nan_beside_infinities_rejected(self):
        inf = float("inf")
        with pytest.raises(ValueError, match="samples must not be NaN"):
            EmpiricalCDF.from_samples([inf, float("nan"), -inf])
        with pytest.raises(ValueError, match="weights must not be NaN"):
            EmpiricalCDF.from_samples(
                [1.0, 2.0, 3.0], weights=[float("nan"), inf, 0.0]
            )
        cdf = EmpiricalCDF.from_samples([inf, 1.0, -inf])
        assert cdf.values == (-inf, 1.0, inf)

    def test_cumulative_is_monotone(self):
        cdf = EmpiricalCDF.from_samples([3.0, 1.0, 4.0, 1.0, 5.0])
        assert list(cdf.cumulative) == sorted(cdf.cumulative)
        assert cdf.cumulative[-1] == pytest.approx(1.0)


class TestFinalCumulativeExactlyOne:
    """Regressions for the quantile(1.0) edge case.

    The running weight sum can land a few ulps below 1.0, in which case
    ``searchsorted(cumulative, 1.0)`` runs past the end and only the
    defensive index clamp saved ``quantile(1.0)``.  The constructor now
    pins the final cumulative entry to exactly 1.0.
    """

    def test_final_cumulative_is_exactly_one_with_awkward_weights(self):
        # 10 x 0.1 sums to 0.9999999999999999 under float addition.
        cdf = EmpiricalCDF.from_samples(
            list(range(10)), weights=[0.1] * 10
        )
        assert cdf.cumulative[-1] == 1.0
        assert cdf.quantile(1.0) == 9

    def test_quantile_one_returns_maximum_without_clamp(self):
        import numpy as np

        samples = [1.0, 2.0, 7.0]
        weights = [1 / 3, 1 / 3, 1 / 3]
        cdf = EmpiricalCDF.from_samples(samples, weights=weights)
        # searchsorted must find the final entry directly.
        index = int(np.searchsorted(cdf.cumulative, 1.0, side="left"))
        assert index == len(cdf.values) - 1
        assert cdf.quantile(1.0) == 7.0

    def test_duplicate_samples(self):
        cdf = EmpiricalCDF.from_samples([2.0, 2.0, 2.0, 5.0])
        assert cdf.cumulative[-1] == 1.0
        assert cdf.probability_at(2.0) == pytest.approx(0.75)
        assert cdf.quantile(1.0) == 5.0
        assert cdf.quantile(0.5) == 2.0

    def test_weighted_duplicates(self):
        cdf = EmpiricalCDF.from_samples(
            [3.0, 3.0, 9.0], weights=[0.2, 0.3, 0.5]
        )
        assert cdf.probability_at(3.0) == pytest.approx(0.5)
        assert cdf.cumulative[-1] == 1.0

    def test_probability_at_below_minimum_is_zero(self):
        cdf = EmpiricalCDF.from_samples([4.0, 5.0], weights=[0.7, 0.3])
        assert cdf.probability_at(3.999) == 0.0

    def test_probability_at_minimum_includes_its_weight(self):
        cdf = EmpiricalCDF.from_samples([4.0, 5.0], weights=[0.7, 0.3])
        assert cdf.probability_at(4.0) == pytest.approx(0.7)

    def test_accepts_numpy_arrays(self):
        import numpy as np

        cdf = EmpiricalCDF.from_samples(
            np.array([1.0, 2.0]), weights=np.array([1.0, 3.0])
        )
        assert cdf.probability_at(1.0) == pytest.approx(0.25)
        assert cdf.cumulative[-1] == 1.0


class TestStreamingCDF:
    def test_exact_under_capacity(self):
        data = [5.0, 1.0, 3.0, 3.0, 2.0]
        sketch = StreamingCDF(capacity=8)
        sketch.update_many(data)
        exact = EmpiricalCDF.from_samples(data)
        assert sketch.count == len(data)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert sketch.quantile(q) == exact.quantile(q)

    def test_compaction_bounds_retained_points(self):
        sketch = StreamingCDF(capacity=16)
        for value in range(1000):
            sketch.update(float(value))
        assert sketch.count == 1000
        values, _ = sketch._points()
        assert len(values) <= 2 * 16

    def test_compaction_preserves_extremes_and_mass(self):
        sketch = StreamingCDF(capacity=16)
        sketch.update_many([float(v) for v in range(1000)])
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(1.0) == 999.0
        assert sketch.total_weight == pytest.approx(1000.0)
        assert abs(sketch.to_cdf().cumulative[-1] - 1.0) < 1e-12

    def test_merge_preserves_count_and_weight(self):
        left, right = StreamingCDF(capacity=32), StreamingCDF(capacity=32)
        left.update_many([1.0, 2.0])
        right.update_many([3.0], [5.0])
        merged = left.merge(right)
        assert merged.count == 3
        assert merged.total_weight == pytest.approx(7.0)

    def test_weighted_updates_shift_quantiles(self):
        sketch = StreamingCDF(capacity=32)
        sketch.update_many([1.0, 10.0], [99.0, 1.0])
        assert sketch.quantile(0.5) == 1.0

    def test_copy_is_independent(self):
        sketch = StreamingCDF(capacity=32)
        sketch.update_many([1.0, 2.0])
        duplicate = sketch.copy()
        sketch.update(100.0)
        assert duplicate.count == 2
        assert duplicate.quantile(1.0) == 2.0

    def test_empty_sketch_rejects_reads(self):
        sketch = StreamingCDF()
        with pytest.raises(ValueError):
            sketch.quantile(0.5)
        with pytest.raises(ValueError):
            sketch.to_cdf()

    def test_nan_values_and_weights_rejected(self):
        sketch = StreamingCDF(capacity=32)
        sketch.update_many([1.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            sketch.update_many([3.0, float("nan")])
        with pytest.raises(ValueError, match="NaN"):
            sketch.update_many([3.0, 4.0], [1.0, float("nan")])
        with pytest.raises(ValueError, match="NaN"):
            sketch.update(float("nan"))
        # A rejected batch leaves the sketch as it was.
        assert sketch.count == 2
        assert sketch.to_cdf().values == (1.0, 2.0)

    def test_stored_arrays_are_read_only(self):
        import numpy as np

        sketch = StreamingCDF(capacity=8)
        sketch.update_many([3.0, 1.0], [1.0, 2.0])
        sketch.update(2.0)
        merged = sketch.merge(sketch.copy())
        for held in (sketch, sketch.copy(), merged):
            for array in held._values + held._weights:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 5.0
        # Past the capacity, the compacted arrays are read-only too.
        sketch.update_many(np.arange(20.0))
        assert len(sketch._values) == 1
        with pytest.raises(ValueError, match="read-only"):
            sketch._values[0][0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            sketch._weights[0][0] = 5.0

    def test_update_copies_its_input(self):
        import numpy as np

        values = np.array([1.0, 2.0])
        weights = np.array([1.0, 1.0])
        sketch = StreamingCDF(capacity=32)
        sketch.update_many(values, weights)
        values[0] = 100.0
        weights[1] = 0.0
        assert values.flags.writeable and weights.flags.writeable
        assert sketch.to_cdf().values == (1.0, 2.0)
        assert sketch.total_weight == 2.0

    def test_copy_shares_arrays_but_not_lists(self):
        sketch = StreamingCDF(capacity=32)
        sketch.update_many([1.0, 2.0])
        duplicate = sketch.copy()
        assert duplicate._values[0] is sketch._values[0]
        sketch.update(3.0)
        assert len(duplicate._values) == 1
        assert duplicate.to_cdf().values == (1.0, 2.0)

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            StreamingCDF(capacity=4)
