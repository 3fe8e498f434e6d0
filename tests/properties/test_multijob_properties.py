"""Multi-job scheduling safety invariants, property-tested.

The central guarantee of scheduling many trace jobs onto one cluster:
at no instant does the placed GPU count exceed the fleet capacity, for
*any* job mix. The replay is FIFO over a 6-server fleet.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.sched import FifoPolicy, Fleet, run_schedule
from repro.trace.schema import JobRecord


@st.composite
def job_lists(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    jobs = []
    for index in range(count):
        architecture = draw(
            st.sampled_from(
                [
                    Architecture.SINGLE,
                    Architecture.LOCAL_CENTRALIZED,
                    Architecture.ALLREDUCE_LOCAL,
                    Architecture.ALLREDUCE_CLUSTER,
                ]
            )
        )
        if architecture is Architecture.SINGLE:
            cnodes = 1
        elif architecture.is_local:
            cnodes = draw(st.integers(2, 8))
        else:
            cnodes = draw(st.integers(2, 40))
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
                submit_day=draw(st.integers(0, 5)),
            )
        )
    return jobs


def schedule(jobs, durations):
    return run_schedule(
        jobs,
        Fleet(num_servers=6, gpus_per_server=8),
        FifoPolicy(),
        durations=durations,
    )


def gpu_usage_at(segments, instant):
    return sum(
        s.placement.total_gpus
        for s in segments
        if s.start_hour <= instant < s.end_hour
    )


class TestSchedulerSafety:
    @settings(max_examples=40, deadline=None)
    @given(jobs=job_lists(), seed=st.integers(0, 100))
    def test_never_oversubscribed(self, jobs, seed):
        durations = {j.job_id: 1.0 + (j.job_id % 5) for j in jobs}
        outcome = schedule(jobs, durations)
        segments = [s for o in outcome.outcomes for s in o.segments]
        # Check occupancy at every start instant (usage only changes there).
        for segment in segments:
            usage = gpu_usage_at(segments, segment.start_hour)
            assert usage <= 6 * 8

    @settings(max_examples=40, deadline=None)
    @given(jobs=job_lists())
    def test_every_job_placed_or_rejected(self, jobs):
        durations = {j.job_id: 2.0 for j in jobs}
        outcome = schedule(jobs, durations)
        assert len(outcome.outcomes) + len(outcome.rejected) == len(jobs)

    @settings(max_examples=40, deadline=None)
    @given(jobs=job_lists())
    def test_no_job_starts_before_arrival(self, jobs):
        durations = {j.job_id: 0.5 for j in jobs}
        outcome = schedule(jobs, durations)
        for job_outcome in outcome.outcomes:
            assert (
                job_outcome.first_start_hour
                >= job_outcome.arrival_hour - 1e-9
            )

    @settings(max_examples=20, deadline=None)
    @given(jobs=job_lists())
    def test_deterministic(self, jobs):
        durations = {j.job_id: 1.5 for j in jobs}
        first = schedule(jobs, durations)
        second = schedule(jobs, durations)
        assert first.outcomes == second.outcomes
        assert first.rejected == second.rejected
