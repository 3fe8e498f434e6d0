"""Trace replay: day-grouped batches on a simulated clock."""

import pytest

from repro.serve import TraceReplayer


class FakeClock:
    """A manual clock whose sleep() just advances time, recording calls."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestBatching:
    def test_delivers_every_job_in_order(self, small_trace):
        delivered = []
        replayer = TraceReplayer(small_trace, batch_size=64)
        count = replayer.replay(delivered.extend)
        assert count == len(small_trace)
        assert delivered == list(small_trace)
        assert replayer.delivered == len(small_trace)

    def test_batches_never_span_days(self, small_trace):
        batches = []
        TraceReplayer(small_trace, batch_size=10_000).replay(batches.append)
        for batch in batches:
            assert len({job.submit_day for job in batch}) == 1

    def test_batches_respect_size_bound(self, small_trace):
        batches = []
        TraceReplayer(small_trace, batch_size=7).replay(batches.append)
        assert all(len(batch) <= 7 for batch in batches)

    def test_accepts_a_generator(self, small_trace):
        delivered = []
        replayer = TraceReplayer(iter(small_trace), batch_size=50)
        assert replayer.replay(delivered.extend) == len(small_trace)
        assert delivered == list(small_trace)


class TestSimulatedClock:
    def test_zero_speed_never_sleeps(self, small_trace):
        clock = FakeClock()
        TraceReplayer(
            small_trace, seconds_per_day=0.0, clock=clock, sleep=clock.sleep
        ).replay(lambda jobs: None)
        assert clock.sleeps == []

    def test_paces_batches_by_submit_day(self, small_trace):
        clock = FakeClock()
        arrivals = []

        def sink(jobs):
            arrivals.append((clock.now, jobs[0].submit_day))

        ordered = sorted(small_trace, key=lambda job: job.submit_day)
        TraceReplayer(
            ordered,
            batch_size=10_000,
            seconds_per_day=2.0,
            clock=clock,
            sleep=clock.sleep,
        ).replay(sink)
        first_day = arrivals[0][1]
        for now, day in arrivals:
            # Each day's first batch lands exactly on its schedule slot.
            assert now == pytest.approx(2.0 * (day - first_day))

    def test_ingest_slower_than_schedule_does_not_sleep(self, small_trace):
        clock = FakeClock()

        def slow_sink(jobs):
            clock.now += 100.0  # ingestion far behind the schedule

        TraceReplayer(
            small_trace,
            batch_size=10_000,
            seconds_per_day=0.5,
            clock=clock,
            sleep=clock.sleep,
        ).replay(slow_sink)
        assert clock.sleeps == []


class TestStop:
    def test_stop_mid_replay_finishes_current_batch(self, small_trace):
        delivered = []
        replayer = TraceReplayer(small_trace, batch_size=25)

        def sink(jobs):
            delivered.extend(jobs)
            if len(delivered) >= 50:
                replayer.stop()

        count = replayer.replay(sink)
        assert replayer._stop.is_set()
        assert count == len(delivered) < len(small_trace)
        # Batches are never torn: delivery stopped on a batch boundary.
        assert delivered == list(small_trace[: len(delivered)])

    def test_stop_before_replay_delivers_nothing(self, small_trace):
        replayer = TraceReplayer(small_trace)
        replayer.stop()
        assert replayer.replay(lambda jobs: None) == 0


class TestValidation:
    def test_rejects_bad_batch_size(self, small_trace):
        with pytest.raises(ValueError, match="batch_size"):
            TraceReplayer(small_trace, batch_size=0)

    def test_rejects_negative_speed(self, small_trace):
        with pytest.raises(ValueError, match="seconds_per_day"):
            TraceReplayer(small_trace, seconds_per_day=-1.0)
