"""The bundled policies decide exactly as their sorting references do.

The engine keeps ``context.queue`` in (arrival hour, job id) order and
``context.running`` in (end hour, job id) order, and the bundled
policies read those orders instead of sorting.  Crashes and storms
re-queue jobs out of arrival order and end runs early, which is where
an ordering slip would hide, so every replay here injects random
faults.  Each bundled policy must produce the same schedule digest as
its reference in :mod:`reference_policies`, and every context the
engine builds must be in both orders, conserve GPUs (server by server,
free plus the running placements' counts is the server's capacity;
backfill's reservation reuse relies on it) and never show a job as both
queued and running.  Every finished job's segments must add up to its
service hours.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import Architecture
from repro.sched import (
    BackfillPolicy,
    CrashSpec,
    FifoPolicy,
    Fleet,
    PriorityPolicy,
    SchedFaults,
    SjfPolicy,
    StormSpec,
    run_schedule,
)

from reference_policies import (
    ReferenceBackfill,
    ReferenceFifo,
    ReferencePriority,
    ReferenceSjf,
)
from sched_helpers import free_by_server, make_job
from test_schedule_digest import schedule_digest

GPUS_PER_SERVER = 8

PAIRS = [
    (FifoPolicy(), ReferenceFifo()),
    (SjfPolicy(), ReferenceSjf()),
    (BackfillPolicy(), ReferenceBackfill()),
    (PriorityPolicy(), ReferencePriority()),
    (PriorityPolicy(preempt=False), ReferencePriority(preempt=False)),
]


class OrderChecked:
    """Delegates to a policy after checking the context's two orders
    and the engine's invariants."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.name = policy.name

    def select(self, context):
        queue = [(p.arrival_hour, p.job_id) for p in context.queue]
        running = [(r.end_hour, r.job_id) for r in context.running]
        assert queue == sorted(queue)
        assert running == sorted(running)
        fleet = context.fleet
        accounted = list(free_by_server(fleet))
        for entry in context.running:
            placement = entry.placement
            for server, count in zip(placement.servers, placement.counts):
                accounted[server] += count
        assert accounted == [fleet.gpus_per_server] * fleet.num_servers
        assert not {job_id for _, job_id in queue} & {
            job_id for _, job_id in running
        }
        return self.policy.select(context)


@st.composite
def replays(draw):
    """A small trace, its durations, a fleet size and random faults.

    Durations come from a handful of values so that SJF's remaining
    hours and the running set's end hours tie, and widths are drawn
    per family so that priorities (gang widths) tie too.
    """
    num_servers = draw(st.integers(1, 3))
    count = draw(st.integers(1, 16))
    jobs = []
    for job_id in range(count):
        architecture = draw(st.sampled_from(list(Architecture)))
        if architecture is Architecture.SINGLE:
            width = 1
        elif architecture.is_local:
            width = draw(st.integers(1, GPUS_PER_SERVER))
        elif architecture is Architecture.PS_WORKER:
            width = draw(st.integers(1, num_servers + 1))
        else:
            width = draw(st.integers(1, num_servers * GPUS_PER_SERVER))
        jobs.append(
            make_job(
                job_id,
                architecture,
                width,
                submit_day=draw(st.integers(0, 2)),
            )
        )
    durations = {
        job.job_id: draw(st.sampled_from([0.5, 1.0, 2.0, 6.0, 24.0]))
        for job in jobs
    }
    hours = st.floats(0.0, 72.0, allow_nan=False)
    crashes = draw(
        st.lists(
            st.builds(
                CrashSpec,
                hour=hours,
                job_id=st.none() | st.integers(0, count),
                backoff_hours=st.sampled_from([0.5, 2.0, 30.0]),
            ),
            max_size=3,
        )
    )
    storms = draw(
        st.lists(
            st.builds(
                StormSpec,
                start_hour=hours,
                ticks=st.integers(1, 3),
                interval_hours=st.sampled_from([0.5, 1.0, 6.0]),
                victims_per_tick=st.integers(1, 3),
            ),
            max_size=2,
        )
    )
    faults = SchedFaults(crashes=tuple(crashes), storms=tuple(storms))
    return jobs, durations, num_servers, faults


def assert_work_conserved(outcome):
    """Every finished job's segments add up to its service hours:
    preemptions and crashes split a run but neither lose nor add
    work."""
    for job in outcome.outcomes:
        executed = sum(segment.duration_hours for segment in job.segments)
        assert math.isclose(executed, job.service_hours, rel_tol=1e-9), (
            job.job.job_id,
            executed,
            job.service_hours,
        )


@settings(max_examples=150, deadline=None)
@given(case=replays())
def test_bundled_policies_match_their_references(case):
    jobs, durations, num_servers, faults = case
    for policy, reference in PAIRS:
        digests = []
        for chosen in (OrderChecked(policy), reference):
            outcome = run_schedule(
                jobs,
                Fleet(num_servers),
                chosen,
                durations=durations,
                faults=faults,
            )
            assert_work_conserved(outcome)
            digests.append(schedule_digest(outcome))
        assert digests[0] == digests[1], policy
