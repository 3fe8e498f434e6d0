"""JobRecord schema and type filters."""

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.trace.schema import (
    JobRecord,
    features_of_type,
    iter_day_groups,
)


def record(job_id=0, architecture=Architecture.SINGLE, num_cnodes=1):
    features = WorkloadFeatures(
        name=f"job-{job_id}",
        architecture=architecture,
        num_cnodes=num_cnodes,
        batch_size=32,
        flop_count=1e9,
        memory_access_bytes=1e6,
        input_bytes=1e3,
        weight_traffic_bytes=0.0 if architecture is Architecture.SINGLE else 1e6,
        dense_weight_bytes=1e6,
    )
    return JobRecord(job_id=job_id, features=features)


class TestJobRecord:
    def test_workload_type_delegates(self):
        job = record(architecture=Architecture.PS_WORKER, num_cnodes=4)
        assert job.workload_type is Architecture.PS_WORKER
        assert job.num_cnodes == 4

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            JobRecord(job_id=-1, features=record().features)

    def test_rejects_negative_day(self):
        with pytest.raises(ValueError):
            JobRecord(job_id=0, features=record().features, submit_day=-1)


class TestFilters:
    def test_features_of_type(self):
        jobs = [record(0), record(1, Architecture.PS_WORKER, 4)]
        features = features_of_type(jobs, Architecture.SINGLE)
        assert len(features) == 1
        assert features[0].architecture is Architecture.SINGLE

    def test_empty_result(self):
        assert features_of_type([], Architecture.PS_WORKER) == []


def record_on_day(job_id, day, architecture=Architecture.SINGLE):
    base = record(job_id=job_id, architecture=architecture)
    return JobRecord(
        job_id=job_id, features=base.features, submit_day=day
    )


class TestIterDayGroups:
    def test_contiguous_runs(self):
        jobs = [
            record_on_day(0, 0),
            record_on_day(1, 0),
            record_on_day(2, 3),
            record_on_day(3, 5),
            record_on_day(4, 5),
        ]
        groups = list(iter_day_groups(jobs))
        assert [day for day, _ in groups] == [0, 3, 5]
        assert [[j.job_id for j in g] for _, g in groups] == [
            [0, 1],
            [2],
            [3, 4],
        ]

    def test_empty_stream(self):
        assert list(iter_day_groups([])) == []

    def test_unsorted_stream_yields_one_run_per_change(self):
        # The grouping is over *contiguous* runs: an unsorted stream
        # simply produces a group per day change, order preserved.
        jobs = [record_on_day(0, 2), record_on_day(1, 0), record_on_day(2, 2)]
        groups = list(iter_day_groups(jobs))
        assert [day for day, _ in groups] == [2, 0, 2]

    def test_streams_lazily(self):
        def infinite():
            day = 0
            while True:
                yield record_on_day(day, day)
                day += 1

        iterator = iter_day_groups(infinite())
        day, group = next(iterator)
        assert day == 0 and [j.job_id for j in group] == [0]


class TestJobView:
    @pytest.fixture()
    def store(self, tmp_path):
        from repro.trace.columnar import ColumnarTrace, write_columnar

        jobs = [
            record_on_day(0, 1),
            record_on_day(1, 1, architecture=Architecture.PS_WORKER),
            record_on_day(2, 4),
        ]
        path = tmp_path / "schema.columnar"
        write_columnar(jobs, path, shard_rows=2)
        return jobs, ColumnarTrace.open(path)

    def test_inequality_against_other_types(self, store):
        jobs, trace = store
        view = next(trace.iter_views())
        assert view != object()
        assert (view == object()) is False
