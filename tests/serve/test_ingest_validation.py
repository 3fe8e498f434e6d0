"""``POST /ingest`` rejects bad batches whole, before any shard sees them.

``json.loads`` accepts the ``NaN`` and ``Infinity`` literals, so the
record schema is the only thing standing between such a body and the
running statistics.  One accepted NaN would turn every ``/stats``
average into NaN for the life of the service: such a body is a 400.

A batch that repeats a job id -- one already ingested, or one earlier in
the same batch -- is a 409.  Without that check a POST retried after
the service had applied it counted every job twice.  A trace replay
that meets such an id skips it and goes on to the end of the trace.
"""

import contextlib
import json
import math
import threading
from dataclasses import replace

import pytest

from repro.serve import (
    DuplicateJobError,
    ServeClient,
    ServiceError,
    ShardedState,
    TraceReplayer,
    TraceService,
    batch_reference,
    serialize_jobs,
)
from repro.serve.server import QueryError, _Handler


def of_kind(sink, kind):
    """The events of one kind that a ``MemorySink`` collected, in order."""
    return [event for event in sink.events if event.get("kind") == kind]


NON_FINITE = [math.nan, math.inf, -math.inf]

#: The numeric features of a serialized record.
NUMERIC_FEATURES = [
    "num_cnodes",
    "batch_size",
    "flop_count",
    "memory_access_bytes",
    "input_bytes",
    "weight_traffic_bytes",
    "dense_weight_bytes",
    "embedding_weight_bytes",
    "embedding_traffic_bytes",
]


def _ingest(body):
    service = TraceService()
    raw = json.dumps(body).encode("utf-8")
    with pytest.raises(QueryError) as failure:
        service.handle("POST", "/ingest", {}, raw)
    assert service.state.job_count == 0
    return failure.value


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", NUMERIC_FEATURES)
def test_non_finite_feature_is_400(small_trace, field, value):
    body = serialize_jobs(small_trace[:2])
    body["jobs"][1]["features"][field] = value
    error = _ingest(body)
    assert error.status == 400
    assert "index 1" in str(error)
    assert f"{field} must be finite" in str(error)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["job_id", "submit_day"])
def test_non_finite_metadata_is_400(small_trace, field, value):
    body = serialize_jobs(small_trace[:2])
    body["jobs"][1][field] = value
    error = _ingest(body)
    assert error.status == 400
    assert "index 1" in str(error)


#: Values the record parser used to coerce (a float id read as an int,
#: ``true`` as a cNode count, a number as a tenant label).
MISTYPED = [
    ("job_id", 1.5),
    ("submit_day", 2.7),
    ("user_group", 5),
    ("features.num_cnodes", True),
    ("features.batch_size", 3.9),
    ("features.flop_count", True),
    ("features.name", 7),
]


@pytest.mark.parametrize("field,value", MISTYPED, ids=[f for f, _ in MISTYPED])
def test_mistyped_field_is_400(small_trace, field, value):
    body = serialize_jobs(small_trace[:2])
    record = body["jobs"][1]
    if field.startswith("features."):
        record["features"][field.split(".", 1)[1]] = value
    else:
        record[field] = value
    error = _ingest(body)
    assert error.status == 400
    assert "index 1" in str(error)
    assert f"{field.split('.')[-1]} must be" in str(error)


@pytest.mark.parametrize("record", [[1, 2], "job", 7, None])
def test_a_record_that_is_not_an_object_is_400(small_trace, record):
    body = serialize_jobs(small_trace[:2])
    body["jobs"][1] = record
    error = _ingest(body)
    assert error.status == 400
    assert "index 1" in str(error)
    assert "a job record must be of type dict" in str(error)


def _identity(state):
    snapshot = state.snapshot()
    return state.job_count, snapshot.versions, snapshot.digests


class TestRepeatedJobIds:
    def test_a_reposted_batch_is_409_and_counted_once(self, small_trace):
        batch = small_trace[:50]
        service = TraceService(state=ShardedState(num_shards=3))
        service.start()
        try:
            client = ServeClient(service.url, retries=3)
            with contextlib.closing(client):
                assert client.ingest(batch)["ingested"] == 50
                before = client.stats()
                with pytest.raises(ServiceError) as failure:
                    client.ingest(batch)
                assert failure.value.status == 409
                # so the client never retried
                assert not failure.value.transient
                assert str(failure.value).endswith(
                    f"repeated job id {batch[0].job_id}"
                )
                assert client.healthz()["jobs"] == 50
                stats = client.stats()
        finally:
            service.stop()
        assert stats == before
        reference = batch_reference(batch)
        assert stats["jobs"] == reference["jobs"] == 50
        assert stats["architectures"] == reference["architectures"]
        for level in ("job", "cnode"):
            for key, want in reference["fractions"][level].items():
                assert stats["fractions"][level][key] == pytest.approx(
                    want, rel=1e-9
                )

    def test_a_rejected_batch_changes_nothing(self, small_trace):
        state = ShardedState(num_shards=3)
        state.ingest(small_trace[:20])
        before = _identity(state)
        # Fresh ids first, then one already ingested, then a repeat of
        # the first fresh one: the error names the first repeat.
        batch = list(small_trace[20:30]) + [small_trace[5], small_trace[20]]
        with pytest.raises(DuplicateJobError) as failure:
            state.ingest(batch)
        assert failure.value.job_id == small_trace[5].job_id
        assert _identity(state) == before
        # The fresh ids of the rejected batch were not claimed.
        assert state.ingest(small_trace[20:30]) == 10

    def test_a_repeat_within_one_batch(self, small_trace):
        state = ShardedState(num_shards=2)
        batch = list(small_trace[:5])
        batch.append(replace(small_trace[40], job_id=batch[2].job_id))
        with pytest.raises(DuplicateJobError, match=f"{batch[2].job_id}"):
            state.ingest(batch)
        assert state.job_count == 0
        assert state.generation == 0

    def test_racing_writers_land_exactly_one_batch(self, small_trace):
        # Two batches share one id; whichever claims it first lands
        # whole, the other is rejected whole.
        first, second = small_trace[:30], small_trace[29:60]
        for _ in range(20):
            state = ShardedState(num_shards=4)
            barrier = threading.Barrier(2)
            landed, rejected = [], []

            def writer(batch):
                barrier.wait()
                try:
                    landed.append(state.ingest(batch))
                except DuplicateJobError as error:
                    rejected.append(error.job_id)

            threads = [
                threading.Thread(target=writer, args=(batch,))
                for batch in (first, second)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(landed) == 1
            assert rejected == [small_trace[29].job_id]
            assert state.job_count == landed[0]

    def test_ingest_new_skips_held_and_repeated_ids(self, small_trace):
        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:10])
        repeat = replace(small_trace[40], job_id=small_trace[12].job_id)
        batch = [small_trace[3], *small_trace[10:15], repeat, small_trace[7]]
        count, skipped = state.ingest_new(batch)
        assert count == 5
        assert skipped == [
            small_trace[3].job_id,
            small_trace[12].job_id,
            small_trace[7].job_id,
        ]
        assert state.job_count == 15
        # The first copy of the repeated id is the one held.
        reference = ShardedState(num_shards=2)
        reference.ingest(small_trace[:15])
        assert state.snapshot().digests == reference.snapshot().digests


def _reference_fractions(state, jobs):
    served = state.snapshot().stats.reference_payload()
    reference = batch_reference(jobs)
    assert served["jobs"] == reference["jobs"]
    assert served["architectures"] == reference["architectures"]
    for level in ("job", "cnode"):
        for key, want in reference["fractions"][level].items():
            assert served["fractions"][level][key] == pytest.approx(
                want, rel=1e-9
            )


class TestReplayMeetsARepeatedId:
    """The replay runs to the end of the trace past a repeated id."""

    def _replay(self, jobs, posted=()):
        from repro.obs import MemorySink, get_obs, reset_obs

        state = ShardedState(num_shards=3)
        service = TraceService(state=state)
        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        service.start()
        try:
            with contextlib.closing(ServeClient(service.url)) as client:
                if posted:
                    client.ingest(posted)
                replayer = TraceReplayer(jobs, batch_size=20)
                service.start_replay(replayer)
                assert service.wait_for_ingest(timeout=60)
                health = client.healthz()
        finally:
            service.stop()
            reset_obs()
        assert replayer.delivered == len(jobs)
        assert health["ingest_complete"]
        return state, health, of_kind(sink, "serve.replay.repeated_ids")

    def test_an_id_a_client_posted_first(self, small_trace):
        # A client posts its own job under the id of the replay's last
        # job; the replay skips its copy and ingests every other job.
        late = small_trace[-1]
        posted = replace(small_trace[0], job_id=late.job_id)
        assert posted.features != late.features
        state, health, events = self._replay(small_trace, posted=[posted])
        assert health["jobs"] == len(small_trace)
        _reference_fractions(state, [*small_trace[:-1], posted])
        (event,) = events
        assert event["level"] == "warning"
        assert (event["job_id"], event["skipped"]) == (late.job_id, 1)

    def test_a_trace_that_repeats_an_id(self, small_trace):
        last_day = small_trace[-1].submit_day
        repeat = replace(small_trace[5], submit_day=last_day)
        state, health, events = self._replay([*small_trace, repeat])
        assert health["jobs"] == len(small_trace)
        _reference_fractions(state, small_trace)
        assert [(e["job_id"], e["skipped"]) for e in events] == [
            (repeat.job_id, 1)
        ]


class TestRetriedIngest:
    """A POST whose first attempt landed but whose answer was lost."""

    @pytest.mark.parametrize("loss", ["drop", "500"])
    def test_the_retry_is_409_and_the_batch_counts_once(
        self, small_trace, monkeypatch, loss
    ):
        # The service applies the first attempt, then the connection
        # drops or it answers 500; the client retries, and the retry
        # finds every id already held.
        respond = _Handler._respond
        lost = []

        def lose_the_first_ingest_answer(handler, status, payload):
            if handler.command == "POST" and not lost:
                lost.append(status)
                if loss == "drop":
                    handler.close_connection = True
                    return
                status, payload = 500, {"error": "answer lost"}
            respond(handler, status, payload)

        monkeypatch.setattr(_Handler, "_respond", lose_the_first_ingest_answer)
        batch = small_trace[:50]
        service = TraceService(state=ShardedState(num_shards=3))
        service.start()
        try:
            sleeps = []
            client = ServeClient(service.url, retries=3, sleep=sleeps.append)
            with contextlib.closing(client):
                with pytest.raises(ServiceError) as failure:
                    client.ingest(batch)
                health = client.healthz()
        finally:
            service.stop()
        assert lost == [200]
        assert failure.value.status == 409
        assert len(sleeps) == 1  # one retry; the 409 ended it
        assert health["jobs"] == 50
        _reference_fractions(service.state, batch)
