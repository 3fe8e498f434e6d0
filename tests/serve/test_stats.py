"""Mergeable shard statistics equal the one-shot batch path."""

import math

import pytest

from repro.serve import ShardStats, batch_reference, payload_leaves
from repro.serve.stats import AGGREGATION_LEVELS, CDF_METRICS


def assert_payloads_close(got, want, rel_tol=1e-9):
    got_leaves = payload_leaves(got)
    want_leaves = payload_leaves(want)
    assert [path for path, _ in got_leaves] == [
        path for path, _ in want_leaves
    ]
    for (path, value), (_, reference) in zip(got_leaves, want_leaves):
        if isinstance(reference, float):
            assert math.isclose(
                value, reference, rel_tol=rel_tol, abs_tol=1e-12
            ), (path, value, reference)
        else:
            assert value == reference, (path, value, reference)


class TestSingleShardEquivalence:
    def test_one_batch_matches_batch_reference(self, small_trace):
        stats = ShardStats()
        assert stats.observe(small_trace) == len(small_trace)
        assert_payloads_close(
            stats.reference_payload(), batch_reference(small_trace)
        )

    def test_many_batches_match_one_batch(self, small_trace):
        streamed = ShardStats()
        for start in range(0, len(small_trace), 37):
            streamed.observe(small_trace[start : start + 37])
        whole = ShardStats()
        whole.observe(small_trace)
        assert_payloads_close(
            streamed.reference_payload(), whole.reference_payload()
        )

    def test_empty_batch_is_a_noop(self, small_trace):
        stats = ShardStats()
        stats.observe(small_trace)
        before = stats.reference_payload()
        assert stats.observe([]) == 0
        assert stats.reference_payload() == before


class TestMerging:
    def test_merged_shards_match_whole_population(self, small_trace):
        shards = [ShardStats() for _ in range(3)]
        for index, job in enumerate(small_trace):
            shards[index % 3].observe([job])
        merged = ShardStats.merged(shards)
        assert_payloads_close(
            merged.reference_payload(), batch_reference(small_trace)
        )

    def test_merge_does_not_mutate_sources(self, small_trace):
        half = len(small_trace) // 2
        left, right = ShardStats(), ShardStats()
        left.observe(small_trace[:half])
        right.observe(small_trace[half:])
        left_before = left.reference_payload()
        right_before = right.reference_payload()
        ShardStats.merged([left, right])
        assert left.reference_payload() == left_before
        assert right.reference_payload() == right_before

    def test_merge_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="zero shards"):
            ShardStats.merged([])


class TestReadSide:
    def test_empty_population_raises(self):
        stats = ShardStats()
        with pytest.raises(ValueError, match="empty"):
            stats.average_fractions()
        with pytest.raises(ValueError, match="empty"):
            stats.census()

    def test_unknown_metric_and_level_raise(self, small_trace):
        stats = ShardStats()
        stats.observe(small_trace[:20])
        with pytest.raises(KeyError, match="metric"):
            stats.cdf("nope")
        with pytest.raises(KeyError, match="level"):
            stats.cdf("step_time", "nope")
        with pytest.raises(KeyError, match="level"):
            stats.average_fractions("nope")

    def test_census_shares_sum_to_one(self, small_trace):
        stats = ShardStats()
        stats.observe(small_trace)
        for level in AGGREGATION_LEVELS:
            assert math.isclose(
                sum(stats.census(level).values()), 1.0, rel_tol=1e-9
            )

    def test_every_metric_has_a_cdf_at_every_level(self, small_trace):
        stats = ShardStats()
        stats.observe(small_trace)
        for metric in CDF_METRICS:
            for level in AGGREGATION_LEVELS:
                cdf = stats.cdf(metric, level)
                assert abs(cdf.cumulative[-1] - 1.0) < 1e-12


class TestPayloadLeaves:
    def test_flattens_nested_dicts_sorted(self):
        leaves = payload_leaves({"b": {"y": 2.0, "x": 1.0}, "a": 0.0})
        assert leaves == [("a", 0.0), ("b.x", 1.0), ("b.y", 2.0)]
