"""Spans, events, sinks and the process-wide context."""

import io
import json

import pytest

from repro.obs import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    JsonLinesSink,
    MemorySink,
    Observability,
    StderrSink,
    configure,
    get_obs,
    reset_obs,
)


def of_kind(sink, kind):
    """The events of one kind that a ``MemorySink`` collected, in order."""
    return [event for event in sink.events if event.get("kind") == kind]


@pytest.fixture(autouse=True)
def fresh_global_obs():
    reset_obs()
    yield
    reset_obs()


def memory_obs():
    sink = MemorySink()
    return Observability(sinks=[sink]), sink


class TestEvents:
    def test_event_carries_ts_kind_level_and_fields(self):
        obs, sink = memory_obs()
        obs.event("cache.hit", level=DEBUG, key="abc")
        (event,) = sink.events
        assert event["kind"] == "cache.hit"
        assert event["level"] == "debug"
        assert event["key"] == "abc"
        assert event["ts"] > 0

    def test_log_levels(self):
        obs, sink = memory_obs()
        obs.debug("d")
        obs.info("i")
        obs.log(WARNING, "w")
        obs.error("e")
        assert [e["level"] for e in sink.events] == [
            "debug",
            "info",
            "warning",
            "error",
        ]

    def test_no_sinks_is_a_noop(self):
        Observability(sinks=[]).event("anything")  # must not raise


class TestSpans:
    def test_trace_records_wall_and_cpu_durations(self):
        obs, sink = memory_obs()
        with obs.trace("work", id="x"):
            sum(range(1000))
        (span,) = of_kind(sink, "span")
        assert span["name"] == "work"
        assert span["id"] == "x"
        assert span["status"] == "ok"
        assert span["wall_s"] >= 0.0
        assert span["cpu_s"] >= 0.0

    def test_nesting_depth(self):
        obs, sink = memory_obs()
        with obs.trace("outer"):
            with obs.trace("inner"):
                pass
        spans = {s["name"]: s for s in of_kind(sink, "span")}
        assert spans["outer"]["depth"] == 0
        assert spans["inner"]["depth"] == 1

    def test_exception_marks_span_error_and_propagates(self):
        obs, sink = memory_obs()
        with pytest.raises(RuntimeError):
            with obs.trace("doomed"):
                raise RuntimeError("boom")
        (span,) = of_kind(sink, "span")
        assert span["status"] == "error"

    def test_span_observes_a_timer(self):
        obs, _ = memory_obs()
        with obs.trace("work"):
            pass
        assert obs.metrics.timer("span.work").count == 1


class TestStderrSink:
    def test_filters_below_threshold(self):
        stream = io.StringIO()
        obs = Observability(sinks=[StderrSink(WARNING, stream=stream)])
        obs.info("hidden")
        obs.log(WARNING, "shown")
        output = stream.getvalue()
        assert "hidden" not in output
        assert "shown" in output
        assert "WARNING" in output

    def test_span_line_is_indented_by_depth(self):
        stream = io.StringIO()
        obs = Observability(sinks=[StderrSink(DEBUG, stream=stream)])
        with obs.trace("outer"):
            with obs.trace("inner"):
                pass
        lines = stream.getvalue().splitlines()
        # inner is one level deep: two extra spaces before "span".
        assert any("DEBUG   span inner" in line for line in lines)
        assert any("DEBUG span outer" in line for line in lines)


class TestJsonLinesSink:
    def test_writes_one_valid_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = Observability(sinks=[JsonLinesSink(path)])
        obs.event("a", n=1)
        with obs.trace("t"):
            pass
        obs.close()
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["kind"] for e in events] == ["a", "span"]

    def test_appends_across_reopens(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for n in range(2):
            obs = Observability(sinks=[JsonLinesSink(path)])
            obs.event("tick", n=n)
            obs.close()
        assert len(path.read_text().splitlines()) == 2

    def test_records_all_levels_unfiltered(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = Observability(sinks=[JsonLinesSink(path)])
        obs.debug("fine-grained")
        obs.close()
        assert "fine-grained" in path.read_text()


class TestGlobalContext:
    def test_get_obs_returns_one_instance(self):
        assert get_obs() is get_obs()

    def test_default_is_warnings_only_stderr(self):
        (sink,) = get_obs().sinks
        assert isinstance(sink, StderrSink)
        assert sink.min_level == WARNING

    def test_configure_levels(self, tmp_path):
        obs = configure(verbose=True)
        assert obs.sinks[0].min_level == DEBUG
        obs = configure(quiet=True)
        assert obs.sinks[0].min_level == ERROR
        obs = configure()
        assert obs.sinks[0].min_level == INFO

    def test_configure_adds_json_sink(self, tmp_path):
        path = tmp_path / "e.jsonl"
        obs = configure(json_path=path)
        obs.event("x")
        obs.close()
        assert path.exists()

    def test_configure_rejects_verbose_and_quiet(self):
        with pytest.raises(ValueError):
            configure(verbose=True, quiet=True)

    def test_emit_summary_carries_metric_snapshot(self):
        obs = get_obs()
        sink = obs.add_sink(MemorySink())
        obs.metrics.counter("cache.hit").inc(2)
        obs.emit_summary()
        (summary,) = of_kind(sink, "summary")
        assert summary["metrics"]["counters"]["cache.hit"] == 2
