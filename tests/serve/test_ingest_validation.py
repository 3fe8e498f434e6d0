"""``POST /ingest`` rejects non-finite feature values with a 400.

``json.loads`` accepts the ``NaN`` and ``Infinity`` literals, so the
record schema is the only thing standing between such a body and the
running statistics.  One accepted NaN would turn every ``/stats``
average into NaN for the life of the service.
"""

import json
import math

import pytest

from repro.serve import TraceService, serialize_jobs
from repro.serve.server import QueryError

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
