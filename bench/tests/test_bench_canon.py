from types import SimpleNamespace

from canon import placement_pairs, schedule_digest
from repro.sched import ExecutionSegment, JobOutcome, Placement, ScheduleOutcome


def outcome_with(placement) -> ScheduleOutcome:
    job = JobOutcome(
        job=SimpleNamespace(job_id=7),
        arrival_hour=24.0,
        service_hours=1.5,
        segments=(ExecutionSegment(start_hour=24.0, end_hour=25.5, placement=placement),),
    )
    return ScheduleOutcome(
        policy="fifo",
        outcomes=[job],
        total_gpus=32,
        rejected=[SimpleNamespace(job_id=9)],
    )


def test_pairs_from_dense_and_sparse_placements():
    dense = Placement(gpus_by_server=(0, 2, 0, 1))
    sparse = SimpleNamespace(servers=(3, 1), counts=(1, 2))
    expected = [(1, 2), (3, 1)]
    assert placement_pairs(dense) == expected
    assert placement_pairs(sparse) == expected


def test_digest_ignores_placement_representation():
    dense = outcome_with(Placement(gpus_by_server=(0, 2, 0, 1)))
    sparse = outcome_with(SimpleNamespace(servers=(1, 3), counts=(2, 1)))
    assert schedule_digest(dense) == schedule_digest(sparse)


def test_digest_changes_when_one_gpu_moves():
    before = outcome_with(Placement(gpus_by_server=(0, 2, 0, 1)))
    after = outcome_with(Placement(gpus_by_server=(0, 1, 1, 1)))
    assert schedule_digest(before) != schedule_digest(after)


def test_digest_covers_times_and_rejections():
    base = outcome_with(Placement(gpus_by_server=(0, 2, 0, 1)))
    shifted = outcome_with(Placement(gpus_by_server=(0, 2, 0, 1)))
    shifted.outcomes[0] = JobOutcome(
        job=SimpleNamespace(job_id=7),
        arrival_hour=24.0,
        service_hours=1.5,
        segments=(
            ExecutionSegment(
                start_hour=24.0,
                end_hour=25.5 + 1e-12,
                placement=Placement(gpus_by_server=(0, 2, 0, 1)),
            ),
        ),
    )
    assert schedule_digest(base) != schedule_digest(shifted)
    shifted = outcome_with(Placement(gpus_by_server=(0, 2, 0, 1)))
    shifted.rejected = []
    assert schedule_digest(base) != schedule_digest(shifted)
