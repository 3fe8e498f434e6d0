"""Safety invariants of the repro.sched engine, property-tested.

For arbitrary job mixes and any policy: no job starts before it
arrives, the fleet's per-server GPU capacity is never exceeded at any
instant, preemption conserves every job's work, and the whole schedule
is deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.sched import (
    BackfillPolicy,
    FifoPolicy,
    Fleet,
    PriorityPolicy,
    SjfPolicy,
    run_schedule,
)
from repro.trace.schema import JobRecord

GPUS_PER_SERVER = 8
NUM_SERVERS = 3

POLICIES = [FifoPolicy(), SjfPolicy(), BackfillPolicy(), PriorityPolicy()]


@st.composite
def job_lists(draw):
    count = draw(st.integers(min_value=1, max_value=25))
    jobs = []
    for index in range(count):
        architecture = draw(
            st.sampled_from(
                [
                    Architecture.SINGLE,
                    Architecture.LOCAL_CENTRALIZED,
                    Architecture.ALLREDUCE_LOCAL,
                    Architecture.ALLREDUCE_CLUSTER,
                    Architecture.PS_WORKER,
                ]
            )
        )
        if architecture is Architecture.SINGLE:
            cnodes = 1
        elif architecture.is_local:
            cnodes = draw(st.integers(2, GPUS_PER_SERVER))
        elif architecture is Architecture.PS_WORKER:
            cnodes = draw(st.integers(2, NUM_SERVERS))
        else:
            cnodes = draw(st.integers(2, NUM_SERVERS * GPUS_PER_SERVER))
        features = WorkloadFeatures(
            name=f"job-{index}",
            architecture=architecture,
            num_cnodes=cnodes,
            batch_size=32,
            flop_count=1e9,
            memory_access_bytes=1e6,
            input_bytes=1e3,
            weight_traffic_bytes=0.0
            if architecture is Architecture.SINGLE
            else 1e6,
            dense_weight_bytes=1e6,
        )
        jobs.append(
            JobRecord(
                job_id=index,
                features=features,
                submit_day=draw(st.integers(0, 3)),
            )
        )
    durations = {
        job.job_id: draw(
            st.floats(min_value=0.1, max_value=30.0, allow_nan=False)
        )
        for job in jobs
    }
    policy = draw(st.sampled_from(POLICIES))
    return jobs, durations, policy


def run(jobs, durations, policy):
    return run_schedule(
        jobs, Fleet(NUM_SERVERS, GPUS_PER_SERVER), policy, durations=durations
    )


@given(job_lists())
@settings(max_examples=60, deadline=None)
def test_no_job_starts_before_arrival(case):
    jobs, durations, policy = case
    outcome = run(jobs, durations, policy)
    for job_outcome in outcome.outcomes:
        assert job_outcome.first_start_hour >= job_outcome.arrival_hour - 1e-9
        previous_end = None
        for segment in job_outcome.segments:
            assert segment.end_hour >= segment.start_hour
            if previous_end is not None:
                # Segments never overlap or run backwards in time.
                assert segment.start_hour >= previous_end - 1e-9
            previous_end = segment.end_hour


@given(job_lists())
@settings(max_examples=60, deadline=None)
def test_capacity_never_exceeded(case):
    jobs, durations, policy = case
    outcome = run(jobs, durations, policy)
    segments = [
        segment
        for job_outcome in outcome.outcomes
        for segment in job_outcome.segments
    ]
    boundaries = sorted({segment.start_hour for segment in segments})
    for instant in boundaries:
        per_server = [0] * NUM_SERVERS
        for segment in segments:
            if segment.start_hour <= instant < segment.end_hour:
                placement = segment.placement
                for index, count in zip(placement.servers, placement.counts):
                    per_server[index] += count
        assert all(count <= GPUS_PER_SERVER for count in per_server)


@given(job_lists())
@settings(max_examples=60, deadline=None)
def test_work_is_conserved(case):
    jobs, durations, policy = case
    outcome = run(jobs, durations, policy)
    # Placed + rejected partitions the trace, and every placed job runs
    # exactly its service time across all its segments -- preemption
    # pauses work but never loses or duplicates it.
    assert len(outcome.outcomes) + len(outcome.rejected) == len(jobs)
    for job_outcome in outcome.outcomes:
        executed = sum(s.duration_hours for s in job_outcome.segments)
        assert executed == pytest.approx(durations[job_outcome.job.job_id])


@given(job_lists())
@settings(max_examples=25, deadline=None)
def test_schedule_is_deterministic(case):
    jobs, durations, policy = case
    first = run(jobs, durations, policy)
    second = run(jobs, durations, policy)
    assert first.outcomes == second.outcomes
    assert first.rejected == second.rejected
    assert first.telemetry == second.telemetry
