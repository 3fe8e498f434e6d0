import itertools

import pytest

import timing
from timing import (
    REFERENCE_PROBE_S,
    SAMPLE_EVERY,
    TIME_ALL_FIRST,
    HostClock,
    Recorder,
    nearest_rank,
    repeats,
    tail_percentile,
    timed_subclass,
)


def test_nearest_rank():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 99) == 99
    assert nearest_rank(samples, 100) == 100
    assert nearest_rank([5.0], 99) == 5.0


@pytest.mark.parametrize(
    "count, percentile",
    [
        (10000, 99.9),
        (9999, 99.0),
        (1200, 99.0),
        (1000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_tail_leaves_ten_samples_beyond(count, percentile):
    assert tail_percentile(count) == percentile
    if percentile is not None:
        samples = list(range(count))
        beyond = [s for s in samples if s > nearest_rank(samples, percentile)]
        assert len(beyond) >= 10


def test_repeats_scale_with_seconds_above_a_minimum():
    assert repeats(20, 5.0, 3) == 4
    assert repeats(1, 5.0, 3) == 3


def test_host_clock_probes_after_every_piece(monkeypatch):
    probes = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(timing, "probe", lambda: next(probes) * REFERENCE_PROBE_S)
    clock = HostClock()
    result, wall = clock.measure(lambda value: value * 2, 21)
    assert result == 42 and wall >= 0
    # The probes around the piece took 1 and 3 references: mean 2.
    assert clock.last_scale == pytest.approx(0.5)
    clock.measure(lambda: None)
    assert len(clock.probes) == 3
    assert clock.probe_s == pytest.approx(3 * REFERENCE_PROBE_S)
    assert clock.last_scale == pytest.approx(0.25)


def test_sampled_leaf_counts_every_call_and_scales_its_samples(monkeypatch):
    # A clock that advances one tick per read: every timed call lasts 1.
    ticks = itertools.count()
    recorder = Recorder()
    with monkeypatch.context() as patch:
        patch.setattr(timing.time, "perf_counter", lambda: next(ticks))
        leaf = recorder.wrap("leaf", lambda: None, leaf=True)
    calls = TIME_ALL_FIRST + 10 * SAMPLE_EVERY
    for _ in range(calls):
        leaf()
    assert recorder.calls("leaf") == calls
    # All of the first calls, then 10 samples each booked SAMPLE_EVERY times.
    assert recorder.total_s("leaf") == TIME_ALL_FIRST + 10 * SAMPLE_EVERY
    assert recorder.top_level_s == recorder.total_s("leaf")


class Box:
    def __init__(self):
        self.inner = None

    def leaf(self, value):
        return value

    def outer(self, value):
        return self.leaf(value) * 2


def test_recorder_books_self_time_and_trials():
    recorder = Recorder()
    timed = timed_subclass(
        Box,
        recorder,
        {"leaf": ("box.leaf", "box.trial_leaf"), "missing": ("box.missing", None)},
        failed={"leaf": lambda value: value is None},
    )
    box = timed()
    outer = recorder.wrap("box.outer", box.outer)
    assert outer(3) == 6
    recorder.trial = True
    assert box.leaf(None) is None
    recorder.trial = False
    assert recorder.calls("box.outer") == 1
    assert recorder.calls("box.leaf") == 1
    assert recorder.calls("box.trial_leaf") == 1
    assert recorder.failures("box.trial_leaf") == 1
    assert recorder.calls("box.missing") == 0
    assert not hasattr(timed, "missing")
    nested = recorder.total_s("box.outer") - recorder.self_s("box.outer")
    assert nested == pytest.approx(recorder.total_s("box.leaf"))
    restored = Recorder.load(recorder.snapshot())
    assert restored.calls("box.trial_leaf") == 1
