"""The discrete-event engine: mechanics, telemetry and determinism."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.architectures import Architecture
from repro.obs import get_obs
from repro.sched import (
    BackfillPolicy,
    CrashSpec,
    FifoPolicy,
    Fleet,
    PriorityPolicy,
    SchedFaults,
    SchedulingDecision,
    SjfPolicy,
    StormSpec,
    run_schedule,
)

from sched_helpers import make_job

SRC = Path(__file__).resolve().parents[2] / "src"


class TestMechanics:
    def test_arrival_at_submit_day(self):
        jobs = [make_job(0, submit_day=3)]
        outcome = run_schedule(jobs, Fleet(1), FifoPolicy(), durations={0: 1.0})
        assert outcome.outcomes[0].arrival_hour == 72.0
        assert outcome.outcomes[0].first_start_hour == 72.0

    def test_oversized_job_rejected(self):
        jobs = [make_job(0, Architecture.ALLREDUCE_CLUSTER, 17)]
        outcome = run_schedule(jobs, Fleet(2), FifoPolicy(), durations={0: 1.0})
        assert [job.job_id for job in outcome.rejected] == [0]
        assert outcome.outcomes == []

    def test_unplaceable_shape_rejected_by_default(self):
        # 4 PS workers over 2 servers: fits the GPU count, not the shape.
        jobs = [make_job(0, Architecture.PS_WORKER, 4)]
        outcome = run_schedule(jobs, Fleet(2), FifoPolicy(), durations={0: 1.0})
        assert [job.job_id for job in outcome.rejected] == [0]

    def test_duplicate_job_id_raises(self):
        # Both id-0 jobs used to start, one outcome was dropped and its
        # 8 GPUs stayed allocated after the replay ended.
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(1),
        ]
        with pytest.raises(ValueError, match="duplicate job id 0"):
            run_schedule(
                jobs, Fleet(2), FifoPolicy(), durations={0: 1.0, 1: 1.0}
            )

    @pytest.mark.parametrize(
        "hours", [math.inf, -1.0], ids=["inf", "negative"]
    )
    def test_unusable_duration_raises(self, hours):
        jobs = [make_job(0), make_job(1)]
        with pytest.raises(ValueError, match="job 1: duration must be finite"):
            run_schedule(
                jobs, Fleet(1), FifoPolicy(), durations={0: 1.0, 1: hours}
            )

    def test_missing_duration_names_the_job(self):
        # A durations dict that misses an admitted job raised a bare
        # KeyError(3).  A rejected job needs no entry.
        jobs = [make_job(3), make_job(4, Architecture.ALLREDUCE_CLUSTER, 17)]
        with pytest.raises(ValueError, match="job 3: durations has no entry"):
            run_schedule(jobs, Fleet(1), FifoPolicy(), durations={})
        outcome = run_schedule(jobs, Fleet(1), FifoPolicy(), durations={3: 1.0})
        assert [job.job_id for job in outcome.rejected] == [4]

    def test_outcomes_sorted_by_submission(self):
        jobs = [
            make_job(3, submit_day=0),
            make_job(1, submit_day=1),
            make_job(2, submit_day=0),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={1: 1.0, 2: 1.0, 3: 1.0}
        )
        assert [o.job.job_id for o in outcome.outcomes] == [2, 3, 1]

    def test_policy_name_recorded(self):
        outcome = run_schedule([], Fleet(1), SjfPolicy())
        assert outcome.policy == "sjf"

    def test_a_policy_that_never_settles_raises(self):
        # Every round evicts the running job and starts the queue's
        # head, so the two 8-GPU jobs swap places forever at hour 0.
        # The replay used to stop asking after the round bound and go
        # on, returning 10,001 segments, 9,999 of them zero-length.
        class Thrash:
            name = "thrash"

            def select(self, context):
                return SchedulingDecision(
                    starts=(context.queue[0].job_id,),
                    preemptions=tuple(r.job_id for r in context.running),
                )

        jobs = [make_job(i, Architecture.ALLREDUCE_LOCAL, 8) for i in range(2)]
        with pytest.raises(RuntimeError, match="'thrash'.* at hour 0.0"):
            run_schedule(
                jobs, Fleet(1), Thrash(), durations={0: 1.0, 1: 1.0}
            )

    def test_default_durations_are_lognormal_draw(self):
        jobs = [make_job(0), make_job(1)]
        first = run_schedule(jobs, Fleet(1), FifoPolicy())
        second = run_schedule(jobs, Fleet(1), FifoPolicy())
        assert [o.service_hours for o in first.outcomes] == [
            o.service_hours for o in second.outcomes
        ]


def test_nan_duration_fails_fast():
    """A NaN duration once stalled the replay forever: its completion
    never compared equal to the clock, so it was never popped.  Run in
    a child process so a regression times out instead of hanging."""
    script = textwrap.dedent(
        """
        from repro.sched import FifoPolicy, Fleet, run_schedule
        from repro.trace.generator import TraceConfig, generate_trace

        jobs = generate_trace(config=TraceConfig(num_jobs=50, seed=3))
        durations = {job.job_id: float("nan") for job in jobs}
        run_schedule(jobs, Fleet(8), FifoPolicy(), durations=durations)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "duration must be finite and non-negative, got nan" in result.stderr


class TestPlacement:
    """Architecture-shaped placement, seen through queueing delay."""

    def test_local_job_needs_one_server(self):
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 6),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 6),
        ]
        outcome = run_schedule(
            jobs, Fleet(2), FifoPolicy(), durations={0: 1.0, 1: 1.0}
        )
        assert [o.queueing_delay_hours for o in outcome.outcomes] == [0.0, 0.0]

    def test_fragmented_cluster_queues_local_jobs(self):
        # Two 5-GPU jobs leave 3 + 3 free: a 6-GPU local job must wait
        # for the first of them to end, though 6 GPUs are free in total.
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 5),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 5),
            make_job(2, Architecture.ALLREDUCE_LOCAL, 6),
        ]
        outcome = run_schedule(
            jobs, Fleet(2), FifoPolicy(), durations={0: 2.0, 1: 3.0, 2: 1.0}
        )
        assert outcome.outcomes[2].queueing_delay_hours == 2.0

    def test_ps_job_spreads_across_servers(self):
        jobs = [
            make_job(0, Architecture.PS_WORKER, 4),
            make_job(1, Architecture.PS_WORKER, 4),
        ]
        outcome = run_schedule(
            jobs, Fleet(4), FifoPolicy(), durations={0: 1.0, 1: 1.0}
        )
        assert [o.queueing_delay_hours for o in outcome.outcomes] == [0.0, 0.0]


class TestDeterminism:
    def test_same_inputs_same_schedule(self):
        jobs = [
            make_job(i, Architecture.ALLREDUCE_LOCAL, 2 + i % 6, submit_day=i % 3)
            for i in range(30)
        ]
        for policy in (FifoPolicy(), SjfPolicy(), PriorityPolicy()):
            first = run_schedule(jobs, Fleet(2), policy)
            second = run_schedule(jobs, Fleet(2), policy)
            assert first.outcomes == second.outcomes
            assert first.rejected == second.rejected
            assert first.telemetry == second.telemetry


class TestTelemetry:
    def test_samples_track_fleet_state(self):
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 2.0, 1: 2.0}
        )
        telemetry = outcome.telemetry
        hours = [sample.hour for sample in telemetry.samples]
        assert hours == [0.0, 2.0, 4.0]
        assert [s.busy_gpus for s in telemetry.samples] == [8, 8, 0]
        assert telemetry.samples[0].queue_depth == 1
        assert telemetry.peak_queue_depth == 1

    def test_active_gpu_hours_integrates_busy_time(self):
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 4),
        ]
        outcome = run_schedule(
            jobs, Fleet(2), FifoPolicy(), durations={0: 2.0, 1: 3.0}
        )
        assert outcome.telemetry.active_gpu_hours == pytest.approx(
            8 * 2.0 + 4 * 3.0
        )

    def test_energy_proxy(self):
        jobs = [make_job(0, Architecture.ALLREDUCE_LOCAL, 8)]
        outcome = run_schedule(jobs, Fleet(1), FifoPolicy(), durations={0: 10.0})
        assert outcome.telemetry.energy_kwh(gpu_watts=300.0) == pytest.approx(
            8 * 10.0 * 0.3
        )
        with pytest.raises(ValueError):
            outcome.telemetry.energy_kwh(gpu_watts=-1.0)

    def test_gauges_mirror_the_last_sample(self):
        jobs = [make_job(0, Architecture.ALLREDUCE_LOCAL, 5)]
        outcome = run_schedule(jobs, Fleet(2), FifoPolicy(), durations={0: 1.0})
        last = outcome.telemetry.samples[-1]
        # An idle two-server fleet: half its free GPUs sit apart.
        assert last.fragmentation == 0.5
        registry = get_obs().metrics
        assert registry.gauge("sched.busy_gpus").value == last.busy_gpus
        assert registry.gauge("sched.fragmentation").value == last.fragmentation
        assert registry.gauge("sched.queue_depth").value == last.queue_depth

    def test_telemetry_can_be_disabled(self):
        jobs = [make_job(0)]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 1.0},
            collect_telemetry=False,
        )
        assert outcome.telemetry.samples == ()
        # Integration happens regardless of sampling.
        assert outcome.telemetry.active_gpu_hours == pytest.approx(1.0)


class TestRegistryCounters:
    """The engine's event counters, added to the registry once a run."""

    NAMES = (
        "sched.starts",
        "sched.completions",
        "sched.failures",
        "sched.preemptions",
        "sched.backfills",
    )

    def _counted(self, replay):
        registry = get_obs().metrics
        before = {name: registry.counter(name).value for name in self.NAMES}
        outcome = replay()
        added = {
            name: registry.counter(name).value - before[name]
            for name in self.NAMES
        }
        return outcome, added

    def test_counts_match_the_outcome_under_faults(self):
        jobs = [make_job(i, Architecture.ALLREDUCE_LOCAL, 4) for i in range(8)]
        faults = SchedFaults(
            crashes=(CrashSpec(hour=2.0), CrashSpec(hour=5.0, job_id=6)),
            storms=(
                StormSpec(
                    start_hour=1.0,
                    ticks=3,
                    interval_hours=1.0,
                    victims_per_tick=2,
                ),
            ),
        )
        outcome, added = self._counted(
            lambda: run_schedule(
                jobs,
                Fleet(2),
                FifoPolicy(),
                durations={i: 4.0 for i in range(8)},
                faults=faults,
            )
        )
        assert len(outcome.outcomes) == 8
        assert added["sched.starts"] == sum(
            len(job.segments) for job in outcome.outcomes
        )
        assert added["sched.completions"] == len(outcome.outcomes)
        retries = sum(job.retries for job in outcome.outcomes)
        assert added["sched.failures"] == retries == 2
        assert added["sched.preemptions"] == outcome.total_preemptions > 0

    def test_backfill_counts_the_job_started_past_the_head(self):
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 6),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 4),
            make_job(2),
        ]
        outcome, added = self._counted(
            lambda: run_schedule(
                jobs,
                Fleet(1),
                BackfillPolicy(),
                durations={0: 10.0, 1: 1.0, 2: 1.0},
            )
        )
        starts = {o.job.job_id: o.first_start_hour for o in outcome.outcomes}
        assert starts == {0: 0.0, 1: 10.0, 2: 0.0}
        assert added["sched.backfills"] == 1

    def test_a_requeued_job_keeps_its_arrival_place(self):
        # Jobs 0 (6 GPUs) and 1 (2 GPUs) fill the server at hour 0; job
        # 2 arrives at hour 24 and waits.  A storm at hour 30 evicts job
        # 0, which re-queues after job 2 in event order but ahead of it
        # in arrival order.  At hour 100 (job 0's stale completion) SJF
        # starts job 2 while job 0, blocked on 5 free GPUs, still
        # waits: a start past an earlier arrival, so one backfill.
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 6),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 2),
            make_job(2, submit_day=1),
        ]
        storm = StormSpec(start_hour=30.0, ticks=1, victims_per_tick=1)
        outcome, added = self._counted(
            lambda: run_schedule(
                jobs,
                Fleet(1),
                SjfPolicy(),
                durations={0: 100.0, 1: 200.0, 2: 5.0},
                faults=SchedFaults(storms=(storm,)),
            )
        )
        starts = {
            o.job.job_id: [segment.start_hour for segment in o.segments]
            for o in outcome.outcomes
        }
        assert starts == {0: [0.0, 105.0], 1: [0.0], 2: [100.0]}
        assert added["sched.preemptions"] == 1
        assert added["sched.backfills"] == 1


class TestOutcomeMetrics:
    def test_queueing_delay_and_slowdown(self):
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 2.0, 1: 2.0}
        )
        by_id = {o.job.job_id: o for o in outcome.outcomes}
        assert by_id[1].queueing_delay_hours == pytest.approx(2.0)
        assert by_id[1].completion_time_hours == pytest.approx(4.0)
        assert outcome.mean_queueing_delay_hours == pytest.approx(1.0)
        assert outcome.mean_bounded_slowdown(threshold_hours=1.0) == pytest.approx(1.5)

    def test_bounded_slowdown_floors_service(self):
        jobs = [make_job(0, Architecture.ALLREDUCE_LOCAL, 8), make_job(1)]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 10.0, 1: 0.01}
        )
        # Raw slowdown for job 1 is 1000x; bounded treats it as >= 1 h.
        raw = [o.completion_time_hours / o.service_hours for o in outcome.outcomes]
        assert sum(raw) / len(raw) > 100.0
        assert outcome.mean_bounded_slowdown(threshold_hours=1.0) < 10.0
        with pytest.raises(ValueError):
            outcome.mean_bounded_slowdown(threshold_hours=0.0)

    def test_utilization_matches_legacy_definition(self):
        jobs = [make_job(0, Architecture.ALLREDUCE_LOCAL, 8)]
        outcome = run_schedule(jobs, Fleet(2), FifoPolicy(), durations={0: 4.0})
        assert outcome.utilization() == pytest.approx(0.5)

    def test_utilization_bounded(self, small_trace):
        outcome = run_schedule(small_trace[:200], Fleet(64), FifoPolicy())
        assert 0.0 < outcome.utilization() <= 1.0

    def test_gpu_hours_by_type(self):
        jobs = [make_job(0), make_job(1, Architecture.ALLREDUCE_LOCAL, 4)]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 3.0, 1: 2.0}
        )
        assert outcome.outcomes[1].gpu_hours == 8.0
        assert outcome.gpu_hours_by_type() == {
            Architecture.SINGLE: 3.0,
            Architecture.ALLREDUCE_LOCAL: 8.0,
        }

    def test_makespan_covers_all_jobs(self):
        jobs = [make_job(i, submit_day=i) for i in range(3)]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 1.0, 1: 1.0, 2: 5.0}
        )
        assert outcome.makespan_hours == 2 * 24 + 5.0
        assert run_schedule([], Fleet(1), FifoPolicy()).makespan_hours == 0.0

    def test_distributed_resource_share(self):
        jobs = [make_job(0), make_job(1, Architecture.ALLREDUCE_LOCAL, 8)]
        outcome = run_schedule(
            jobs, Fleet(2), FifoPolicy(), durations={0: 1.0, 1: 1.0}
        )
        assert outcome.distributed_resource_share() == pytest.approx(8 / 9)
        empty = run_schedule([], Fleet(1), FifoPolicy())
        assert empty.distributed_resource_share() == 0.0
