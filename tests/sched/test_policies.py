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
    SchedulingDecision,
    SjfPolicy,
    run_schedule,
)

from sched_helpers import make_job


def starts_of(outcome):
    return {o.job.job_id: o.first_start_hour for o in outcome.outcomes}


def running_on(fleet, job, end_hour):
    """``job`` placed on ``fleet`` at hour 0, running until ``end_hour``."""
    placement = fleet.try_place(job.workload_type, job.num_cnodes)
    return RunningJob(job, placement, 0.0, end_hour)


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

    @staticmethod
    def _second_decision(first, second):
        """One policy decides ``first`` and then ``second``; its second
        decision must be a fresh policy's."""
        policy = BackfillPolicy()
        policy.select(first)
        decision = policy.select(second)
        assert decision == BackfillPolicy().select(second)
        return decision

    def test_reuse_needs_the_same_head_shape(self):
        # A holds all of server 0 until hour 2, B half of server 1
        # until hour 5.  A local-8 head waits for A; a cluster-16 head
        # over the same running jobs waits for B, so the 1-GPU, 3 h
        # candidate fits inside its horizon.
        local = Architecture.ALLREDUCE_LOCAL
        fleet = Fleet(2)
        running = (
            running_on(fleet, make_job(0, local, 8), 2.0),
            running_on(fleet, make_job(1, local, 4), 5.0),
        )
        candidate = PendingJob(make_job(9), 0.0, 3.0)

        def context(head):
            return SchedulingContext(
                0.0, fleet, (PendingJob(head, 0.0, 1.0), candidate), running
            )

        first = context(make_job(2, local, 8))
        second = context(make_job(3, Architecture.ALLREDUCE_CLUSTER, 16))
        assert BackfillPolicy().select(first) == SchedulingDecision()
        assert self._second_decision(first, second).starts == (9,)

    def test_reuse_needs_every_later_running_job(self):
        # A holds server 0 until hour 2 and B half of server 1 until
        # hour 5, in both contexts.  After B, first a cluster job fills
        # the rest of servers 1 and 2, so a PS-2 head waits for B (hour
        # 5); then an 8-GPU job holds server 2 alone, server 1 keeps
        # four free GPUs, and the head waits only for A (hour 2).  B
        # sits at the same distance from the end of both running sets.
        local = Architecture.ALLREDUCE_LOCAL
        cluster = Architecture.ALLREDUCE_CLUSTER
        packed, spread = Fleet(3), Fleet(3)
        a = running_on(packed, make_job(0, local, 8), 2.0)
        b = running_on(packed, make_job(1, local, 4), 5.0)
        assert running_on(spread, a.job, 2.0) == a
        assert running_on(spread, b.job, 5.0) == b
        wide = running_on(packed, make_job(2, cluster, 12), 9.0)
        solo = running_on(spread, make_job(3, local, 8), 9.0)
        assert wide.placement.servers == (1, 2)
        assert solo.placement.servers == (2,)
        queue = (
            PendingJob(make_job(4, Architecture.PS_WORKER, 2), 0.0, 1.0),
            PendingJob(make_job(9), 0.0, 3.0),
        )
        first = SchedulingContext(0.0, packed, queue, (a, b, wide))
        second = SchedulingContext(0.0, spread, queue, (a, b, solo))
        assert self._second_decision(first, second) == SchedulingDecision()


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
        executed = sum(s.duration_hours for s in victim.segments)
        assert executed == pytest.approx(100.0)
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
