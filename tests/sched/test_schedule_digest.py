"""Pinned SHA-256 digests of canonical ``ScheduleOutcome`` values.

The scheduler's contract is byte-identical outcomes: a refactor of the
engine, the fleet or a policy may change how a schedule is computed but
never the schedule itself.  Each case below replays a trace and hashes
a canonical text form of the whole outcome -- every job's arrival,
service hours, retries and execution segments, the rejected ids, and
every telemetry sample -- with floats written by ``float.hex`` so the
digest is exact.

Placements enter the digest as sorted ``(server, gpus)`` pairs with
``gpus > 0``: the sparse ``Placement``'s ``servers``/``counts``, which
write the same text the dense per-server counts did before them.

The digests were recorded while the scheduler still had a second,
day-batched replay engine alongside the per-event one, and both
engines produced exactly these values.
"""

import hashlib
import math
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.analysis.context import default_trace
from repro.sched import (
    BackfillPolicy,
    CrashSpec,
    FifoPolicy,
    Fleet,
    ModelRuntimePredictor,
    Placement,
    PriorityPolicy,
    SchedFaults,
    SjfPolicy,
    StormSpec,
    run_schedule,
)
from repro.trace.generator import TraceConfig, generate_trace

#: Fleet geometry for the 20k-job cases: loaded enough that queues
#: form (so policies actually decide) while keeping each replay in
#: seconds rather than minutes.
_SERVERS = 160

_POLICIES = {
    "fifo": FifoPolicy,
    "sjf": SjfPolicy,
    "backfill": BackfillPolicy,
    "priority": PriorityPolicy,
}

#: Crashes and a storm landing inside the default trace's submission
#: window (days 23-43), so every fault actually fires mid-replay.
_FAULTS = SchedFaults(
    crashes=(
        CrashSpec(hour=23 * 24.0 + 5.0),
        CrashSpec(hour=30 * 24.0 + 1.0, job_id=7, backoff_hours=3.0),
    ),
    storms=(
        StormSpec(
            start_hour=26 * 24.0,
            ticks=3,
            interval_hours=4.0,
            victims_per_tick=2,
        ),
    ),
)

DEFAULT_TRACE_DIGESTS = {
    "faults-backfill": (
        "3d9329c2bfadb15fbd174197a3214ad3dcecfd8ee7e0202570cbed2e8d2359ba"
    ),
    "faults-fifo": (
        "364422392ad42271c5152d9ef21b3a800d399079eaa56ab94e30db6f6d1bf50d"
    ),
    "faults-priority": (
        "7bba5ffb4649424b90fc09820065507ee8eb5627a57e8170cc9189b091f52378"
    ),
    "faults-sjf": (
        "ad88602b15835a28efbde6bab4f1624a604ea65b8a549d475383e47a2fad4abf"
    ),
    "healthy-backfill": (
        "34578ac9385fcd3c439c91de2e44288285099374d35a8dcdfa802b83379d8bdc"
    ),
    "healthy-fifo": (
        "c7f03410fce1827c338bcde3cdf2d4c7e4e53a9d9c756304766ad6079a3d0691"
    ),
    "healthy-priority": (
        "dbd581a4fb68e4a580e213a32ce51ff5f1c78fa9abd5dd19b2f5d155648d1629"
    ),
    "healthy-sjf": (
        "dbc655c3aa626df6c09b7ebbf2f16943c3c508f7368341aab1fa56d6ea1d1d06"
    ),
}

SMALL_TRACE_DIGESTS = {
    "empty_trace": (
        "5ef154f8f7f4d2cc7de6bdaecceb768e306f45f4c8611fd40d2ae95f9b4b4806"
    ),
    "explicit_duration_dict": (
        "cbfb4c97f3e38b597fd9dc3c2380fdecc0d9c49fd89577d40ed30ebc53e3f9d7"
    ),
    "faults_firing_before_first_arrival": (
        "1644c95cd409b5a194bb74c71b9e94353aacb90db594bc84550558d29304ffc8"
    ),
    "model_predicted_durations": (
        "d9fa8ab8f926a0a684e80146ce232c9b12f738e220f2a1183f669c62986e66a7"
    ),
    "non_preempting_priority": (
        "01797efaef80cffd60a7f04c3b7d0f23c5980d94dd960215feaefe0cb7bb44fb"
    ),
    "rejections_preserve_trace_order": (
        "f8120a02c2952ce02226ad02f51765b1b1eacae2c7314613a569bdcea629d32d"
    ),
}


def placement_pairs(placement):
    """The servers a placement holds GPUs on, as sorted pairs."""
    return list(zip(placement.servers, placement.counts))


def _hex(value) -> str:
    return float(value).hex()


def canonical_lines(outcome):
    """The canonical text form of a ``ScheduleOutcome``, line by line."""
    yield f"policy|{outcome.policy}|{outcome.total_gpus}"
    for job in outcome.outcomes:
        segments = ";".join(
            f"{_hex(segment.start_hour)},{_hex(segment.end_hour)},"
            + ",".join(
                f"{server}:{gpus}"
                for server, gpus in placement_pairs(segment.placement)
            )
            for segment in job.segments
        )
        yield (
            f"job|{job.job.job_id}|{_hex(job.arrival_hour)}|"
            f"{_hex(job.service_hours)}|{job.retries}|{segments}"
        )
    yield "rejected|" + ",".join(str(job.job_id) for job in outcome.rejected)
    telemetry = outcome.telemetry
    yield (
        f"telemetry|{telemetry.total_gpus}|"
        f"{_hex(telemetry.active_gpu_hours)}"
    )
    for sample in telemetry.samples:
        yield (
            f"sample|{_hex(sample.hour)}|{sample.busy_gpus}|"
            f"{sample.free_gpus}|{sample.running_jobs}|"
            f"{sample.queue_depth}|{_hex(sample.fragmentation)}"
        )


def schedule_digest(outcome) -> str:
    """SHA-256 over :func:`canonical_lines`."""
    digest = hashlib.sha256()
    for line in canonical_lines(outcome):
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


@lru_cache(maxsize=None)
def _small_trace():
    return tuple(generate_trace(config=TraceConfig(num_jobs=600, seed=17)))


def _model_predicted():
    return run_schedule(
        _small_trace(),
        Fleet(8),
        SjfPolicy(),
        predictor=ModelRuntimePredictor(),
    )


def _explicit_durations():
    durations = {job.job_id: 0.5 + (job.job_id % 7) for job in _small_trace()}
    return run_schedule(
        _small_trace(), Fleet(8), FifoPolicy(), durations=durations
    )


def _non_preempting_priority():
    return run_schedule(_small_trace(), Fleet(6), PriorityPolicy(preempt=False))


def _faults_before_first_arrival():
    late = [job for job in _small_trace() if job.submit_day >= 2]
    faults = SchedFaults(
        crashes=(CrashSpec(hour=1.0),),
        storms=(StormSpec(start_hour=2.0),),
    )
    return run_schedule(late, Fleet(6), FifoPolicy(), faults=faults)


def _rejections():
    outcome = run_schedule(_small_trace(), Fleet(2), FifoPolicy())
    assert len(outcome.rejected) > 0
    return outcome


def _empty():
    outcome = run_schedule([], Fleet(2), FifoPolicy())
    assert outcome.outcomes == []
    assert outcome.rejected == []
    return outcome


#: The small-trace cases: paths the 20k-job replays may miss.
SMALL_CASES = {
    "model_predicted_durations": _model_predicted,
    "explicit_duration_dict": _explicit_durations,
    "non_preempting_priority": _non_preempting_priority,
    "faults_firing_before_first_arrival": _faults_before_first_arrival,
    "rejections_preserve_trace_order": _rejections,
    "empty_trace": _empty,
}


@pytest.mark.slow
@pytest.mark.parametrize("policy_name", sorted(_POLICIES))
@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
def test_default_trace_digest(policy_name, faulty):
    trace = default_trace()
    assert len(trace) == 20000
    outcome = run_schedule(
        trace,
        Fleet(_SERVERS),
        _POLICIES[policy_name](),
        faults=_FAULTS if faulty else None,
    )
    assert len(outcome.outcomes) + len(outcome.rejected) == len(trace)
    key = f"{'faults' if faulty else 'healthy'}-{policy_name}"
    assert schedule_digest(outcome) == DEFAULT_TRACE_DIGESTS[key]


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_small_trace_digest(name):
    assert schedule_digest(SMALL_CASES[name]()) == SMALL_TRACE_DIGESTS[name]


class TestCanonicalForm:
    """What a job held enters the digest, and every float bit counts."""

    def test_placement_pairs_skip_idle_servers(self):
        dense = Placement(gpus_by_server=(0, 3, 0, 1))
        assert placement_pairs(dense) == [(1, 3), (3, 1)]

    def test_digest_moves_with_any_float_bit(self):
        outcome = _explicit_durations()
        first = outcome.outcomes[0]
        nudged = replace(
            first, service_hours=math.nextafter(first.service_hours, math.inf)
        )
        changed = replace(outcome, outcomes=[nudged] + outcome.outcomes[1:])
        assert schedule_digest(changed) != schedule_digest(outcome)
