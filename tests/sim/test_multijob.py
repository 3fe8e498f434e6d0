"""Multi-job cluster scheduling of trace jobs through the repro.sched engine."""

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.sched import FifoPolicy, Fleet, run_schedule
from repro.sched.predictor import sample_durations
from repro.trace.schema import JobRecord


def job(job_id, architecture=Architecture.SINGLE, num_cnodes=1, submit_day=0):
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
    return JobRecord(job_id=job_id, features=features, submit_day=submit_day)


class TestDurations:
    def test_validation(self, small_trace):
        with pytest.raises(ValueError):
            sample_durations(small_trace, median_hours=0.0)


class TestPlacement:
    def test_oversized_jobs_rejected(self):
        outcome = run_schedule(
            [job(0, Architecture.ALLREDUCE_CLUSTER, 100)],
            Fleet(num_servers=1, gpus_per_server=8),
            FifoPolicy(),
            durations={0: 1.0},
        )
        assert len(outcome.rejected) == 1
        assert not outcome.outcomes


class TestMetrics:
    def test_paper_claim_distributed_dominates(self, trace):
        """Sec. II-A2: distributed training uses >85% of resources."""
        placeable = [
            j for j in trace
            if not (
                j.workload_type is Architecture.PS_WORKER
                and j.num_cnodes > 512
            )
        ][:1500]
        outcome = run_schedule(
            placeable,
            Fleet(num_servers=512, gpus_per_server=8),
            FifoPolicy(),
            collect_telemetry=False,
        )
        assert outcome.distributed_resource_share() > 0.85


class TestValidation:
    def test_cluster_dimensions(self):
        with pytest.raises(ValueError):
            Fleet(num_servers=0)
        with pytest.raises(ValueError):
            Fleet(num_servers=1, gpus_per_server=0)
