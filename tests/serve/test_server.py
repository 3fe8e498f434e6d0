"""The HTTP query API: endpoints, validation, caching, lifecycle."""

import errno
import json
import math
import socket
import sys
import tempfile
import threading
import time
from dataclasses import replace

import pytest

from repro.obs import get_obs
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
from repro.serve.server import MAX_INGEST_BYTES

#: A well-formed ``/ingest`` body, for requests framed by hand.
BODY = b'{"jobs": []}'


def exchange(service, request: bytes) -> bytes:
    """Send ``request`` on a new socket; every byte the service sends
    back before it closes the connection.  Raises ``socket.timeout``
    if the service keeps the connection open."""
    with socket.create_connection(
        (service.host, service.port), timeout=5
    ) as sock:
        sock.sendall(request)
        replies = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return replies
            replies += data


def only_reply(replies: bytes) -> "tuple[bytes, bytes]":
    """``(head, body)`` of the one response in ``replies``."""
    assert replies.count(b"HTTP/1.1 ") == 1, replies
    head, _, body = replies.partition(b"\r\n\r\n")
    return head, body


def connections() -> int:
    """Connections the service has accepted in this process so far."""
    return get_obs().metrics.counter("serve.connections").value


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
    client = ServeClient(service.url)
    yield client
    client.close()


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
        # Each answer leaves the body unread, so it also ends the
        # connection: the GET behind it is never read as a request.
        for bad_length, status in (
            (b"abc", 400),
            (b"-5", 400),
            (str(MAX_INGEST_BYTES + 1).encode(), 413),
        ):
            head, body = only_reply(
                exchange(
                    service,
                    b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: "
                    + bad_length
                    + b"\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
                )
            )
            assert head.startswith(b"HTTP/1.1 %d " % status)
            assert b"\r\nConnection: close" in head
            if status == 400:
                assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize(
        "framing",
        [
            b"Transfer-Encoding: chunked\r\n\r\nc\r\n" + BODY + b"\r\n0\r\n\r\n",
            b"\r\n" + BODY,
        ],
        ids=["chunked", "no-content-length"],
    )
    def test_unframed_ingest_is_411_and_ends_the_connection(
        self, service, framing
    ):
        # The body and the GET behind it must not be read as requests.
        head, body = only_reply(
            exchange(
                service,
                b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                + framing
                + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            )
        )
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"\r\nConnection: close" in head
        assert "Content-Length" in json.loads(body)["error"]


class TestPersistentConnections:
    def test_one_client_reuses_one_connection(self, client, small_trace):
        before = connections()
        for turn in range(20):
            payload = client.stats() if turn % 2 else client.healthz()
            assert payload["jobs"] == len(small_trace)
        assert connections() - before == 1

    def test_a_client_shared_by_threads_stays_correct(
        self, service, small_trace
    ):
        # More threads than cores, switching often: two exchanges
        # interleaved on one socket would hand a thread another
        # endpoint's answer.
        client = ServeClient(service.url)
        before = connections()
        failures = []

        def worker(slot):
            try:
                for turn in range(25):
                    kind = (slot + turn) % 3
                    if kind == 0:
                        assert client.healthz()["status"] == "ok"
                    elif kind == 1:
                        payload = client.stats()
                        assert payload["jobs"] == len(small_trace)
                        assert "architectures" in payload
                    else:
                        metric = CDF_METRICS[turn % len(CDF_METRICS)]
                        assert client.cdf(metric)["metric"] == metric
            except Exception as error:
                failures.append((slot, error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert 1 <= connections() - before <= 4
        client.close()

    def test_sequential_requests_do_not_stall(self, client):
        client.healthz()
        start = time.perf_counter()
        for _ in range(50):
            client.healthz()
        # A delayed-ACK stall (~40 ms a request) would take 2 s.
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        ],
        ids=["http-1.0", "connection-close"],
    )
    def test_a_closing_request_ends_its_connection(
        self, service, request_head
    ):
        # The GET behind it is never answered.
        head, _ = only_reply(
            exchange(
                service,
                request_head + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            )
        )
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close" in head

    def test_close_releases_the_connection(self, client, small_trace):
        client.healthz()
        before = connections()
        client.close()
        assert client.stats()["jobs"] == len(small_trace)
        assert connections() - before == 1

    def test_a_client_that_expects_100_continue_gets_it(self, service):
        with socket.create_connection(
            (service.host, service.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(BODY)
            )
            # The interim answer comes before the body is sent.
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(BODY + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            replies = b""
            while replies.count(b"HTTP/1.1 200 ") < 2:
                data = sock.recv(65536)
                assert data, replies
                replies += data
        # The connection stayed in step: an empty batch, then the GET.
        assert b'"ingested": 0' in replies
        assert b'"status": "ok"' in replies


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
