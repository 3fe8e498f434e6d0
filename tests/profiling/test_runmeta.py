"""RunMetadata-style traces from simulated steps."""

import pytest

from repro.core.architectures import Architecture
from repro.graphs import Deployment, build_resnet50
from repro.profiling.runmeta import JobMetadata, OpTraceEntry, RunMetadata
from repro.sim.events import TimelineRecord
from repro.sim.executor import simulate_step


@pytest.fixture(scope="module")
def resnet_metadata(testbed):
    measurement = simulate_step(
        build_resnet50(), Deployment(Architecture.ALLREDUCE_LOCAL, 4), testbed
    )
    return RunMetadata.from_measurement(measurement)


class TestOpTraceEntry:
    def test_from_record_converts_to_microseconds(self):
        record = TimelineRecord("op", "gpu0", 0.001, 0.002, "compute", 5.0)
        entry = OpTraceEntry.from_record(record)
        assert entry.start_us == pytest.approx(1000.0)
        assert entry.duration_us == pytest.approx(1000.0)
        assert entry.volume == 5.0


class TestJobMetadata:
    def test_cnodes(self):
        job = JobMetadata(
            "job", Architecture.PS_WORKER, num_workers=4, gpus_per_worker=2
        )
        assert job.num_cnodes == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            JobMetadata("bad", Architecture.PS_WORKER, num_workers=0)
        with pytest.raises(ValueError):
            JobMetadata(
                "bad",
                Architecture.PS_WORKER,
                num_workers=1,
                num_parameter_servers=-1,
            )


class TestRunMetadata:
    def test_entries_sorted_by_start(self, resnet_metadata):
        starts = [e.start_us for e in resnet_metadata.entries]
        assert starts == sorted(starts)

    def test_categories_present(self, resnet_metadata):
        for category in ("input", "compute", "memory", "weight", "overhead"):
            assert resnet_metadata.entries_of(category), category

    def test_total_volume_positive(self, resnet_metadata):
        assert resnet_metadata.total_volume("compute") > 0
        assert resnet_metadata.total_volume("memory") > 0

    def test_summary_is_busy_time(self, resnet_metadata):
        summary = resnet_metadata.summary()
        assert summary["compute"] == pytest.approx(
            resnet_metadata.busy_time_us("compute")
        )

    def test_empty_metadata(self):
        empty = RunMetadata([])
        assert empty.entries == ()
        assert empty.summary() == {}
