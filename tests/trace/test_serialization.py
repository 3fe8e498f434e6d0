"""JSONL trace persistence."""

import json

import pytest

from repro.trace import generate_trace
from repro.trace.serialization import (
    SCHEMA_VERSION,
    iter_trace,
    job_from_dict,
    job_to_dict,
    load_trace,
    save_trace,
)


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path, small_trace):
        path = tmp_path / "trace.jsonl"
        count = save_trace(small_trace, path)
        assert count == len(small_trace)
        loaded = load_trace(path)
        assert loaded == list(small_trace)

    def test_dict_round_trip(self, small_trace):
        job = small_trace[0]
        assert job_from_dict(job_to_dict(job)) == job

    def test_json_serializable(self, small_trace):
        # Every payload must survive a real JSON encode/decode.
        payload = json.loads(json.dumps(job_to_dict(small_trace[0])))
        assert job_from_dict(payload) == small_trace[0]

    def test_schema_version_stamped(self, small_trace):
        assert job_to_dict(small_trace[0])["schema_version"] == SCHEMA_VERSION


class TestStreaming:
    def test_iter_trace_round_trip(self, tmp_path, small_trace):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace, path)
        assert list(iter_trace(path)) == list(small_trace)

    def test_iter_trace_is_lazy(self, tmp_path, small_trace):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace, path)
        stream = iter_trace(path)
        first = next(stream)
        assert first == small_trace[0]
        # A generator, not a list: the rest is still unread.
        assert list(stream) == list(small_trace[1:])

    def test_iter_trace_reports_line_numbers(self, tmp_path, small_trace):
        good = json.dumps(job_to_dict(small_trace[0]))
        path = tmp_path / "mixed.jsonl"
        path.write_text(good + "\n" + "oops\n")
        stream = iter_trace(path)
        next(stream)
        with pytest.raises(ValueError, match=":2:"):
            next(stream)


class TestRobustness:
    def test_rejects_wrong_schema_version(self, small_trace):
        payload = job_to_dict(small_trace[0])
        payload["schema_version"] = 999
        with pytest.raises(ValueError):
            job_from_dict(payload)

    def test_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_trace(path)

    def test_rejects_invalid_record(self, tmp_path, small_trace):
        payload = job_to_dict(small_trace[0])
        payload["features"]["num_cnodes"] = -1
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match="invalid job record"):
            load_trace(path)

    def test_reports_line_numbers(self, tmp_path, small_trace):
        good = json.dumps(job_to_dict(small_trace[0]))
        path = tmp_path / "mixed.jsonl"
        path.write_text(good + "\n" + "oops\n")
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    def test_skips_blank_lines(self, tmp_path, small_trace):
        good = json.dumps(job_to_dict(small_trace[0]))
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + good + "\n\n")
        assert len(load_trace(path)) == 1

    def test_large_trace_round_trip_preserves_statistics(self, tmp_path):
        from repro.trace.calibration import evaluate_targets

        jobs = generate_trace(num_jobs=3000)
        path = tmp_path / "big.jsonl"
        save_trace(jobs, path)
        loaded = load_trace(path)
        # Identical population => identical calibration measurements.
        original = {r["name"]: r["measured"] for r in evaluate_targets(jobs)}
        reloaded = {r["name"]: r["measured"] for r in evaluate_targets(loaded)}
        assert original == reloaded


def _set(payload, field, value):
    """``payload`` with one top-level or ``features.`` field replaced."""
    if field.startswith("features."):
        payload["features"][field.split(".", 1)[1]] = value
    else:
        payload[field] = value
    return payload


#: Values that a coercing parser used to load as something else, and the
#: message that now names each.
MISTYPED = [
    ("schema_version", True, "unsupported trace schema version: True"),
    ("job_id", 1.5, "job_id must be finite and of type int, not float"),
    ("submit_day", 2.7, "submit_day must be finite and of type int"),
    (
        "features.num_cnodes",
        True,
        "num_cnodes must be finite and of type int, not bool",
    ),
    (
        "features.batch_size",
        3.9,
        "batch_size must be finite and of type int, not float",
    ),
    (
        "features.flop_count",
        True,
        "flop_count must be finite and of type float or int, not bool",
    ),
    (
        "features.input_bytes",
        "5",
        "input_bytes must be finite and of type float or int, not str",
    ),
    ("features.name", 7, "name must be of type str, not int"),
    ("features.architecture", 1, "architecture must be of type str, not int"),
    ("user_group", 5, "user_group must be of type str, not int"),
    ("features", [1, 2], "features must be of type dict, not list"),
]


class TestStrictTypes:
    """Every field has the exact type ``job_to_dict`` writes, or the line
    is rejected with a ``ValueError`` naming the file and the line."""

    @pytest.mark.parametrize(
        "field,value,message", MISTYPED, ids=[m[0] for m in MISTYPED]
    )
    def test_mistyped_field_names_file_and_line(
        self, tmp_path, small_trace, field, value, message
    ):
        bad = _set(job_to_dict(small_trace[0]), field, value)
        path = tmp_path / "bad.jsonl"
        good = job_to_dict(small_trace[1])
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        with pytest.raises(ValueError) as failure:
            load_trace(path)
        assert str(failure.value).startswith(f"{path}:1: invalid job record: ")
        assert message in str(failure.value)

    def test_a_record_that_is_not_an_object(self, tmp_path, small_trace):
        path = tmp_path / "list.jsonl"
        good = json.dumps(job_to_dict(small_trace[0]))
        path.write_text("[1, 2]\n" + good + "\n")
        with pytest.raises(ValueError) as failure:
            list(iter_trace(path))
        assert str(failure.value).startswith(
            f"{path}:1: invalid job record: a job record must be of type dict"
        )

    def test_integral_volumes_and_missing_optional_fields_load(
        self, small_trace
    ):
        payload = job_to_dict(small_trace[0])
        payload["features"]["flop_count"] = 5
        del payload["features"]["dense_weight_bytes"]
        del payload["submit_day"]
        del payload["user_group"]
        job = job_from_dict(payload)
        assert job.features.flop_count == 5
        assert job.features.dense_weight_bytes == 0.0
        assert (job.submit_day, job.user_group) == (0, "default")
