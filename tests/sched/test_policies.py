"""Policy behavior: ordering, backfill and preemption decisions."""

import pytest

from repro.core.architectures import Architecture
from repro.sched import (
    BackfillPolicy,
    FifoPolicy,
    Fleet,
    PendingJob,
    PriorityPolicy,
    RunningJob,
    SchedulingContext,
    SjfPolicy,
    run_schedule,
)

from sched_helpers import make_job


def starts_of(outcome):
    return {o.job.job_id: o.first_start_hour for o in outcome.outcomes}


class TestFifo:
    def test_head_of_line_blocks_later_jobs(self):
        # Job 1 needs the full server; job 2 would fit alongside job 0
        # but must not overtake the blocked head.
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 6),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(2, Architecture.ALLREDUCE_LOCAL, 2),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 4.0, 1: 1.0, 2: 1.0}
        )
        starts = starts_of(outcome)
        assert starts[0] == 0.0
        assert starts[1] == 4.0
        assert starts[2] == 5.0

    def test_arrival_order_wins_over_job_id(self):
        jobs = [
            make_job(5, Architecture.ALLREDUCE_LOCAL, 8, submit_day=0),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8, submit_day=1),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={5: 30.0, 1: 1.0}
        )
        starts = starts_of(outcome)
        assert starts[5] == 0.0
        assert starts[1] == 30.0


class TestSjf:
    def test_shortest_predicted_job_first(self):
        # All three arrive together and need the full server: the two
        # short jobs run before the long one despite its lower id.
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(2, Architecture.ALLREDUCE_LOCAL, 8),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), SjfPolicy(), durations={0: 10.0, 1: 1.0, 2: 2.0}
        )
        starts = starts_of(outcome)
        assert starts[1] == 0.0
        assert starts[2] == 1.0
        assert starts[0] == 3.0


class TestBackfill:
    def test_short_job_backfills_behind_blocked_head(self):
        # Head (job 1) waits for the full server at t=10; job 2 fits in
        # the two spare GPUs and finishes by then, job 3 would not.
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 6),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(2, Architecture.ALLREDUCE_LOCAL, 2),
            make_job(3, Architecture.ALLREDUCE_LOCAL, 2),
        ]
        durations = {0: 10.0, 1: 1.0, 2: 5.0, 3: 20.0}
        outcome = run_schedule(jobs, Fleet(1), BackfillPolicy(), durations=durations)
        starts = starts_of(outcome)
        assert starts[0] == 0.0
        assert starts[2] == 0.0  # backfilled
        assert starts[1] == 10.0  # head starts exactly at its reservation
        assert starts[3] == 11.0  # too long to backfill

    def test_never_delays_the_head(self):
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 6),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(2, Architecture.ALLREDUCE_LOCAL, 2),
        ]
        durations = {0: 10.0, 1: 1.0, 2: 5.0}
        fifo = run_schedule(jobs, Fleet(1), FifoPolicy(), durations=durations)
        easy = run_schedule(jobs, Fleet(1), BackfillPolicy(), durations=durations)
        assert starts_of(easy)[1] == starts_of(fifo)[1]

    def test_skips_widths_known_to_fail(self, monkeypatch):
        # Six of eight GPUs run until hour 10.  The 8-GPU head and a
        # 4-GPU candidate fail on the trial fleet, which only loses GPUs
        # during a pass, so the 5- and 4-GPU candidates behind them are
        # never tried; the 2-GPU one is, and starts.
        local = Architecture.ALLREDUCE_LOCAL
        fleet = Fleet(1)
        busy = make_job(0, local, 6)
        running = RunningJob(busy, fleet.try_place(local, 6), 0.0, 10.0)
        queue = tuple(
            PendingJob(make_job(job_id, local, width), 0.0, 1.0)
            for job_id, width in [(1, 8), (2, 4), (3, 5), (4, 4), (5, 2)]
        )
        tried = []
        try_place = Fleet.try_place

        def counting_try_place(self, architecture, num_gpus):
            tried.append(num_gpus)
            return try_place(self, architecture, num_gpus)

        monkeypatch.setattr(Fleet, "try_place", counting_try_place)
        decision = BackfillPolicy().select(
            SchedulingContext(0.0, fleet, queue, (running,))
        )
        assert decision.starts == (5,)
        assert tried == [8, 4, 2]


class TestPriority:
    def test_preempts_lower_priority(self):
        # A 1-GPU job holds the server when an 8-GPU gang arrives; the
        # gang (higher default priority = width) evicts it.
        jobs = [
            make_job(0, Architecture.SINGLE, 1, submit_day=0),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8, submit_day=1),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), PriorityPolicy(), durations={0: 100.0, 1: 10.0}
        )
        by_id = {o.job.job_id: o for o in outcome.outcomes}
        gang = by_id[1]
        assert gang.first_start_hour == 24.0
        assert gang.queueing_delay_hours == 0.0
        victim = by_id[0]
        assert victim.preemptions == 1
        assert victim.segments[0].end_hour == 24.0
        # Work is conserved: 24 h ran before eviction, the remaining
        # 76 h resume when the gang finishes at t=34.
        assert victim.segments[1].start_hour == 34.0
        assert victim.executed_hours == pytest.approx(100.0)
        assert victim.end_hour == pytest.approx(110.0)

    def test_preemption_disabled(self):
        jobs = [
            make_job(0, Architecture.SINGLE, 1, submit_day=0),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8, submit_day=1),
        ]
        outcome = run_schedule(
            jobs,
            Fleet(1),
            PriorityPolicy(preempt=False),
            durations={0: 100.0, 1: 10.0},
        )
        by_id = {o.job.job_id: o for o in outcome.outcomes}
        assert by_id[0].preemptions == 0
        assert by_id[1].first_start_hour == 100.0

    def test_equal_priority_never_preempts(self):
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8, submit_day=0),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8, submit_day=1),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), PriorityPolicy(), durations={0: 100.0, 1: 1.0}
        )
        by_id = {o.job.job_id: o for o in outcome.outcomes}
        assert by_id[0].preemptions == 0
        assert by_id[1].first_start_hour == 100.0

    def test_custom_priority_function(self):
        # Invert the default: narrow jobs win, so the gang waits.
        jobs = [
            make_job(0, Architecture.SINGLE, 1, submit_day=0),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8, submit_day=1),
        ]
        policy = PriorityPolicy(priority=lambda job: -float(job.num_cnodes))
        outcome = run_schedule(
            jobs, Fleet(1), policy, durations={0: 100.0, 1: 10.0}
        )
        by_id = {o.job.job_id: o for o in outcome.outcomes}
        assert by_id[0].preemptions == 0
        assert by_id[1].first_start_hour == 100.0
