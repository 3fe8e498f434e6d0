"""The HTTP query API: endpoints, validation, caching, lifecycle."""

import errno
import json
import math
import tempfile
from dataclasses import replace

import pytest

from repro.runtime import ResultCache
from repro.serve import (
    CDF_METRICS,
    ServeClient,
    ServiceError,
    ShardedState,
    TraceService,
    batch_reference,
    serialize_jobs,
)


@pytest.fixture()
def service(small_trace):
    state = ShardedState(num_shards=3)
    state.ingest(small_trace)
    service = TraceService(state=state)
    service.start()
    yield service
    service.stop()


@pytest.fixture()
def client(service):
    return ServeClient(service.url)


class TestEndpoints:
    def test_healthz(self, client, small_trace):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"] == len(small_trace)
        assert health["shards"] == 3
        assert health["ingest_complete"] is True
        assert health["uptime_s"] >= 0.0

    def test_stats_matches_batch_reference(self, client, small_trace):
        reference = batch_reference(small_trace)
        stats = client.stats()
        assert stats["jobs"] == reference["jobs"]
        assert stats["cnodes"] == pytest.approx(reference["cnodes"])
        assert stats["architectures"] == reference["architectures"]
        for level in ("job", "cnode"):
            for key, want in reference["fractions"][level].items():
                assert stats["fractions"][level][key] == pytest.approx(
                    want, rel=1e-9
                )
            for key, want in reference["hardware_shares"][level].items():
                assert stats["hardware_shares"][level][key] == pytest.approx(
                    want, rel=1e-9
                )

    def test_census_matches_batch_reference(self, client, small_trace):
        reference = batch_reference(small_trace)
        census = client.census()
        for level in ("job", "cnode"):
            for label, want in reference["census"][level].items():
                assert census["census"][level][label] == pytest.approx(
                    want, rel=1e-9, abs=1e-12
                )

    def test_cdf_quantiles_match_batch_reference(self, client, small_trace):
        reference = batch_reference(small_trace)
        for metric in CDF_METRICS:
            payload = client.cdf(metric, points=25)
            assert payload["metric"] == metric
            assert len(payload["series"]) > 0
            for quantile, want in reference["quantiles"][metric].items():
                assert payload["quantiles"][quantile] == pytest.approx(
                    want, rel=1e-9, abs=1e-12
                )

    def test_cdf_series_is_a_distribution(self, client):
        series = client.cdf("step_time", points=30)["series"]
        probabilities = [probability for _, probability in series]
        assert probabilities == sorted(probabilities)
        assert math.isclose(probabilities[-1], 1.0, rel_tol=1e-9)

    def test_cdf_cnode_level(self, client):
        job_level = client.cdf("weight", level="job")
        cnode_level = client.cdf("weight", level="cnode")
        assert job_level["quantiles"] != cnode_level["quantiles"]

    def test_ingest_grows_the_population(self, service, client, small_trace):
        before = client.stats()["jobs"]
        # The service already holds every trace id; these are new jobs.
        next_id = max(job.job_id for job in small_trace) + 1
        fresh = [
            replace(job, job_id=next_id + offset)
            for offset, job in enumerate(small_trace[:25])
        ]
        outcome = client.ingest(fresh)
        assert outcome["ingested"] == 25
        assert outcome["jobs"] == before + 25
        assert client.stats()["jobs"] == before + 25


class TestValidation:
    def test_unknown_metric_is_400(self, client):
        with pytest.raises(ServiceError) as failure:
            client.cdf("bogus")
        assert failure.value.status == 400

    def test_unknown_level_is_400(self, client):
        with pytest.raises(ServiceError) as failure:
            client.cdf("step_time", level="bogus")
        assert failure.value.status == 400

    def test_bad_points_is_400(self, client):
        for points in ("zero", 1):
            with pytest.raises(ServiceError) as failure:
                client.cdf("step_time", points=points)
            assert failure.value.status == 400

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as failure:
            client._request("/nope")
        assert failure.value.status == 404

    def test_post_to_read_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as failure:
            client._request("/stats", body={"jobs": []})
        assert failure.value.status == 404

    def test_ingest_rejects_malformed_bodies(self, client):
        for body in ({"nope": 1}, {"jobs": "not-a-list"}):
            with pytest.raises(ServiceError) as failure:
                client._request("/ingest", body=body)
            assert failure.value.status == 400

    def test_ingest_reports_bad_record_index(self, client, small_trace):
        body = serialize_jobs(small_trace[:2])
        body["jobs"][1] = {"garbage": True}
        with pytest.raises(ServiceError, match="index 1") as failure:
            client._request("/ingest", body=body)
        assert failure.value.status == 400

    def test_malformed_content_length_is_400(self, service):
        import http.client

        for bad_length in ("abc", "-5"):
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=10
            )
            try:
                conn.putrequest("POST", "/ingest")
                conn.putheader("Content-Length", bad_length)
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 400
                payload = json.loads(response.read().decode("utf-8"))
                assert "Content-Length" in payload["error"]
            finally:
                conn.close()


class TestQueryCache:
    def test_repeat_queries_hit_the_cache(self, small_trace, tmp_path):
        state = ShardedState(num_shards=2)
        state.ingest(small_trace)
        service = TraceService(state=state, cache=ResultCache(tmp_path))
        service.start()
        try:
            client = ServeClient(service.url)
            cold = client.stats()
            assert list(tmp_path.iterdir()), "no cache entry written"
            assert client.stats() == cold
            # The cached payload round-trips through JSON identically.
            assert json.loads(json.dumps(cold)) == cold
        finally:
            service.stop()

    def test_a_full_disk_still_answers(
        self, small_trace, tmp_path, monkeypatch
    ):
        # A cache store that fails with ENOSPC must not turn a computed
        # answer into a 500.
        state = ShardedState(num_shards=2)
        state.ingest(small_trace)
        real = tempfile.NamedTemporaryFile

        def full_disk(*args, **kwargs):
            handle = real(*args, **kwargs)

            def write(data):
                raise OSError(errno.ENOSPC, "No space left on device")

            handle.write = write
            return handle

        monkeypatch.setattr(tempfile, "NamedTemporaryFile", full_disk)
        cached = TraceService(state=state, cache=ResultCache(tmp_path))
        service = TraceService(state=state)
        cached.start()
        service.start()
        try:
            assert ServeClient(cached.url).stats() == (
                ServeClient(service.url).stats()
            )
        finally:
            cached.stop()
            service.stop()
        assert list(tmp_path.iterdir()) == []

    def test_cache_entries_are_population_specific(
        self, small_trace, tmp_path
    ):
        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:100])
        service = TraceService(state=state, cache=ResultCache(tmp_path))
        service.start()
        try:
            client = ServeClient(service.url)
            before = client.stats()
            client.ingest(small_trace[100:150])
            after = client.stats()
            assert after["jobs"] == before["jobs"] + 50
        finally:
            service.stop()

    def test_shared_cache_dir_isolates_different_traces(
        self, small_trace, tmp_path
    ):
        # Two service runs over *different* data whose shards reach the
        # same batch counts must not alias in a shared persistent cache
        # dir: the key hashes the ingested jobs, not just batch counts.
        def serve_stats(jobs):
            state = ShardedState(num_shards=2)
            state.ingest(jobs)
            service = TraceService(state=state, cache=ResultCache(tmp_path))
            service.start()
            try:
                return ServeClient(service.url).stats()
            finally:
                service.stop()

        first = serve_stats(small_trace[:100])
        second = serve_stats(small_trace[100:250])
        assert first["jobs"] == 100
        assert second["jobs"] == 150

    def test_cache_keys_are_stable_across_releases(
        self, small_trace, tmp_path
    ):
        # The entry names are the keys an earlier release wrote for the
        # same population and queries, so a cache directory it left
        # behind is still hit.
        from urllib.request import urlopen

        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:50])
        service = TraceService(state=state, cache=ResultCache(tmp_path))
        service.start()
        try:
            ServeClient(service.url).stats()
            with urlopen(
                f"{service.url}/cdf/step_time?points=20", timeout=10
            ) as response:
                assert response.status == 200
        finally:
            service.stop()
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "32b1f71a9a8c3ff1d31facd953bccd42d574a01cdc62e79dd477e93da8d79f10.json",
            "63fcc8b0df264e3542ae7b854ece374ac9461ef4cbd22422ae6322a0103c6310.json",
        ]

    def test_superseded_entries_are_evicted(self, small_trace, tmp_path):
        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:50])
        service = TraceService(state=state, cache=ResultCache(tmp_path))
        service.start()
        try:
            client = ServeClient(service.url)
            for start in range(50, 250, 50):
                client.ingest(small_trace[start : start + 50])
                client.stats()
            # Five generations of /stats were rendered, but each store
            # evicted the entry it superseded: one live file remains.
            assert len(list(tmp_path.glob("*.json"))) == 1
            assert client.stats()["jobs"] == 250
        finally:
            service.stop()


class TestContentDigests:
    def test_digests_identify_content_not_batch_counts(self, small_trace):
        # The review scenario: identical shard/batch structure over
        # different jobs must yield different snapshot identities.
        first = ShardedState(num_shards=2)
        second = ShardedState(num_shards=2)
        first.ingest(small_trace[:100])
        second.ingest(small_trace[100:200])
        assert first.snapshot().versions == second.snapshot().versions
        assert first.snapshot().digests != second.snapshot().digests

    def test_digests_are_batching_independent(self, small_trace):
        whole = ShardedState(num_shards=3)
        split = ShardedState(num_shards=3)
        whole.ingest(small_trace[:120])
        for start in range(0, 120, 40):
            split.ingest(small_trace[start : start + 40])
        assert whole.snapshot().digests == split.snapshot().digests

    def test_same_content_same_digests(self, small_trace):
        first = ShardedState(num_shards=2)
        second = ShardedState(num_shards=2)
        first.ingest(small_trace[:80])
        second.ingest(small_trace[:80])
        assert first.snapshot().digests == second.snapshot().digests


class TestLifecycle:
    def test_stop_is_idempotent(self, small_trace):
        service = TraceService(state=ShardedState(num_shards=1))
        service.start()
        service.stop()
        service.stop()

    def test_url_requires_start(self):
        service = TraceService(state=ShardedState(num_shards=1))
        with pytest.raises(RuntimeError, match="not started"):
            service.url

    def test_double_start_rejected(self):
        service = TraceService(state=ShardedState(num_shards=1))
        service.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                service.start()
        finally:
            service.stop()

    def test_serialize_jobs_round_trips(self, small_trace):
        from repro.trace.serialization import job_from_dict

        payload = json.loads(json.dumps(serialize_jobs(small_trace[:5])))
        decoded = [job_from_dict(record) for record in payload["jobs"]]
        assert decoded == list(small_trace[:5])
