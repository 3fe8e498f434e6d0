"""A merged view shares its shards' sketch arrays, and answers exactly
as the copying merge in ``copying_stats.py`` does."""

import json

import numpy as np
import pytest

from repro.serve import CDF_METRICS, ShardedState, ShardStats, TraceService
from repro.serve import stats as stats_module
from repro.serve.server import serialize_jobs
from repro.serve.stats import AGGREGATION_LEVELS
from repro.trace import generate_trace

from copying_stats import (
    CopyingState,
    copying_merged,
    copying_snapshot,
    copying_update_from,
)

KEYS = [
    (metric, level) for metric in CDF_METRICS for level in AGGREGATION_LEVELS
]


@pytest.fixture(scope="module")
def jobs():
    return generate_trace(num_jobs=1200, seed=5)


@pytest.fixture()
def capacity(monkeypatch, request):
    """Sketches of ``request.param`` points in every new ShardStats."""
    monkeypatch.setattr(stats_module, "DEFAULT_SKETCH_CAPACITY", request.param)
    return request.param


def cdfs(stats):
    return {key: stats.cdf(*key) for key in KEYS}


def split(jobs, shards, batch):
    """``shards`` ShardStats fed ``jobs`` round robin, ``batch`` a time."""
    stats = [ShardStats() for _ in range(shards)]
    for index, start in enumerate(range(0, len(jobs), batch)):
        stats[index % shards].observe(jobs[start : start + batch])
    return stats


def render_all(service, snapshot):
    """The JSON bytes of /stats, /census and every /cdf at both levels,
    rendered from ``snapshot``."""
    answers = [
        json.dumps(service._stats(snapshot, {})),
        json.dumps(service._census(snapshot, {})),
    ]
    for metric, level in KEYS:
        params = {"metric": metric, "level": level, "points": "50"}
        answers.append(json.dumps(service._cdf(snapshot, params)))
    return answers


class TestSharedMerge:
    def test_merging_copies_no_point(self, jobs):
        shards = split(jobs[:400], 3, 40)
        merged = ShardStats.merged(shards)
        for key in KEYS:
            stored = [id(array) for array in merged.sketches[key]._values]
            shared = [
                id(array)
                for shard in shards
                for array in shard.sketches[key]._values
            ]
            assert stored == shared, key

    @pytest.mark.parametrize("capacity", [8, 64, 1024, 8192], indirect=True)
    def test_shared_equals_copying_on_jobs(self, jobs, capacity):
        shards = split(jobs, 4, 37)
        shared = ShardStats.merged(shards)
        copied = copying_merged(shards)
        assert cdfs(shared) == cdfs(copied)
        assert shared.reference_payload() == copied.reference_payload()

    @pytest.mark.parametrize(
        "capacity", [8, 16, 100, 1000, 8192], indirect=True
    )
    def test_shared_equals_copying_on_ties_and_zero_weights(self, capacity):
        rng = np.random.default_rng(capacity)
        shards = [ShardStats() for _ in range(4)]
        for shard in shards:
            for _ in range(int(rng.integers(1, 8))):
                size = int(rng.integers(1, 3 * capacity // 2 + 2))
                for key in KEYS:
                    # Few distinct values, so most points tie; a third
                    # of the weights are zero.
                    values = rng.integers(0, 12, size).astype(float)
                    weights = rng.choice([0.0, 0.0, 0.5, 1.0, 3.0], size)
                    weights[0] = 1.0
                    shard.sketches[key].update_many(values, weights)
        shared = ShardStats.merged(shards)
        copied = copying_merged(shards)
        for key in KEYS:
            got, want = shared.cdf(*key), copied.cdf(*key)
            assert got.values == want.values
            assert got.cumulative == want.cumulative
        assert sum(shard.sketches[KEYS[0]].count for shard in shards) > (
            capacity
        ), "the merged sketch must compact"

    @pytest.mark.parametrize("capacity", [64], indirect=True)
    def test_later_updates_do_not_reach_a_merged_view(self, jobs, capacity):
        left, right = ShardStats(), ShardStats()
        left.observe(jobs[:100])
        right.observe(jobs[100:200])
        merged = ShardStats.merged([left, right])
        want = cdfs(copying_merged([left, right]))
        # Both sources grow past the capacity and compact after the
        # merge.
        left.observe(jobs[200:500])
        right.observe(jobs[500:800])
        assert cdfs(merged) == want

    @pytest.mark.parametrize("capacity", [64, 8192], indirect=True)
    def test_a_snapshot_answers_the_same_after_later_ingests(
        self, jobs, capacity
    ):
        state = ShardedState(num_shards=3)
        state.ingest(jobs[:300])
        snapshot = state.snapshot()
        copied = copying_snapshot(state, snapshot)
        state.ingest(jobs[300:])
        service = TraceService(state=state)
        assert render_all(service, snapshot) == render_all(service, copied)

    @pytest.mark.parametrize("capacity", [64], indirect=True)
    def test_a_merged_view_copies_and_grows_as_the_oracle(
        self, jobs, capacity
    ):
        shards = split(jobs[:600], 3, 50)
        duplicate = ShardStats.merged(shards).copy()
        assert cdfs(duplicate) == cdfs(copying_merged(shards))
        grown = ShardStats.merged(shards)
        grown.observe(jobs[600:900])
        want = copying_merged(shards)
        want.observe(jobs[600:900])
        assert cdfs(grown) == cdfs(want)
        assert grown.reference_payload() == want.reference_payload()
        # Growing the merged view reached none of the shards.
        assert cdfs(ShardStats.merged(shards)) == cdfs(copying_merged(shards))

    def test_update_from_folds_a_merged_view_in_whole(self, jobs):
        first = ShardStats.merged(split(jobs[:300], 2, 30))
        first.update_from(ShardStats.merged(split(jobs[300:600], 2, 30)))
        want = copying_merged(split(jobs[:300], 2, 30))
        copying_update_from(want, copying_merged(split(jobs[300:600], 2, 30)))
        assert cdfs(first) == cdfs(want)
        assert first.reference_payload() == want.reference_payload()


class TestServedBytes:
    """A whole session answers byte for byte as the copying merge did."""

    def test_a_session_past_the_sketch_capacity(self):
        jobs = generate_trace(num_jobs=11000, seed=51)
        shared = TraceService(state=ShardedState(num_shards=4))
        copied = TraceService(state=CopyingState(num_shards=4))
        for service in (shared, copied):
            service.state.ingest(jobs[:2000])
        cursor = 2000
        metrics = list(CDF_METRICS)
        reads = 0
        for block in range(90):
            for slot in range(10):
                if slot == block % 10:
                    body = json.dumps(
                        serialize_jobs(jobs[cursor : cursor + 100])
                    ).encode("utf-8")
                    cursor += 100
                    request = ("POST", "/ingest", {}, body)
                else:
                    request = read_request(reads, metrics)
                    reads += 1
                answers = [
                    json.dumps(service.handle(*request))
                    for service in (shared, copied)
                ]
                assert answers[0] == answers[1], request
        assert cursor == len(jobs)
        assert shared.state.job_count > stats_module.DEFAULT_SKETCH_CAPACITY


def read_request(reads, metrics):
    """The ``reads``-th read: /stats, /census, then two /cdf reads that
    rotate over every metric at both levels."""
    kind = reads % 4
    if kind == 0:
        return ("GET", "/stats", {}, None)
    if kind == 1:
        return ("GET", "/census", {}, None)
    level = AGGREGATION_LEVELS[reads // 4 % 2]
    if kind == 2:
        params = {"level": level, "points": "20"}
        return ("GET", "/cdf/step_time", params, None)
    metric = metrics[reads // 8 % len(metrics)]
    return ("GET", f"/cdf/{metric}", {"level": level, "points": "50"}, None)
