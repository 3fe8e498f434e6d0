"""The timing wrappers must not change a single scheduling decision."""

import pytest

from sched_workload import SchedInputs, SchedWorkload
from timing import HostClock
from repro.trace import TraceConfig, generate_trace

SERVERS = 6


@pytest.fixture(scope="module")
def inputs():
    jobs = generate_trace(config=TraceConfig(num_jobs=2000, seed=11, trace_days=10))
    half = [job for job in jobs if job.submit_day < 5], [job for job in jobs if job.submit_day >= 5]
    return SchedInputs(list(half), 0.0)


@pytest.mark.parametrize("policy", ["FifoPolicy", "SjfPolicy", "BackfillPolicy", "PriorityPolicy"])
def test_traced_pass_matches_plain(inputs, policy):
    workload = SchedWorkload("test", policy, servers=SERVERS, days=10, pass_s=1.0)
    clock = HostClock()
    plain, traced = workload.replay_passes(inputs, clock, (False, True))
    assert len(traced.digests) == len(inputs.chunks)
    assert traced.digests == plain.digests
    recorder = traced.recorder
    assert recorder.calls("sched.policies.select") > 0
    assert recorder.calls("sched.fleet.place") > 0
    assert 0 < recorder.top_level_s <= traced.wall_s


def test_priority_pass_preempts(inputs):
    from sched_workload import replay

    outcome = replay(inputs.chunks[0], SERVERS, SchedWorkload("test", "PriorityPolicy", SERVERS, 10, pass_s=1.0).policy())
    assert outcome.total_preemptions > 0
