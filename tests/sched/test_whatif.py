"""The fleet-level PS -> AllReduce what-if coupling."""

from dataclasses import replace

import pytest

from repro.core.architectures import Architecture
from repro.core.hardware import pai_default_hardware
from repro.core.projection import (
    project_to_allreduce_local,
    projection_speedups,
)
from repro.sched import project_trace, run_projection_what_if

from sched_helpers import make_job


def ps_heavy_trace():
    """Singles plus PS/Worker jobs that profit from the projection."""
    jobs = [make_job(i, submit_day=i % 2) for i in range(6)]
    jobs += [
        make_job(10 + i, Architecture.PS_WORKER, 12, submit_day=i % 2,
                 weight_traffic=4e9)
        for i in range(4)
    ]
    return jobs


class TestProjectTrace:
    def test_projects_profitable_ps_jobs(self):
        rewritten, considered, projected = project_trace(ps_heavy_trace())
        assert considered == 4
        assert projected == 4
        projected_jobs = [
            j for j in rewritten
            if j.workload_type is Architecture.ALLREDUCE_LOCAL
        ]
        assert len(projected_jobs) == 4
        assert all(j.num_cnodes <= 8 for j in projected_jobs)

    def test_non_ps_jobs_untouched(self):
        trace = ps_heavy_trace()
        rewritten, _, _ = project_trace(trace)
        originals = {j.job_id: j for j in trace}
        for job in rewritten:
            if job.workload_type is not Architecture.ALLREDUCE_LOCAL:
                assert job == originals[job.job_id]

    def test_oversized_model_not_projected(self):
        # dense_weight_bytes is tiny here, so force the memory check via
        # a features tuple whose weights exceed one GPU.
        job = make_job(0, Architecture.PS_WORKER, 12)
        big = replace(
            job, features=replace(job.features, dense_weight_bytes=1e12)
        )
        _, considered, projected = project_trace([big])
        assert considered == 1
        assert projected == 0

    def test_batch_selection_matches_the_per_job_rewrite(self, trace):
        """Fig. 9's criteria applied job by job, the reference for the
        batch evaluation."""
        hardware = pai_default_hardware()
        expected = []
        for job in trace:
            if (
                job.workload_type is Architecture.PS_WORKER
                and job.features.weight_bytes <= hardware.gpu.memory_capacity
                and projection_speedups(
                    job.features, Architecture.ALLREDUCE_LOCAL, hardware
                ).sped_up
            ):
                job = replace(
                    job, features=project_to_allreduce_local(job.features)
                )
            expected.append(job)
        rewritten, _, projected = project_trace(trace)
        assert rewritten == expected
        assert projected == sum(
            1 for before, after in zip(trace, expected) if before is not after
        )

    def test_no_ps_jobs_leaves_the_trace(self):
        trace = [make_job(i) for i in range(3)]
        assert project_trace(trace) == (trace, 0, 0)


class TestWhatIf:
    def test_report_structure_and_gains(self):
        trace = ps_heavy_trace()
        report = run_projection_what_if(trace, num_servers=12)
        assert report.considered_jobs == 4
        assert report.projected_jobs == 4
        assert len(report.baseline.outcomes) == len(trace)
        assert len(report.projected.outcomes) == len(trace)
        # Faster steps on fewer GPUs: the fleet frees GPU-hours.
        assert report.gpu_hours_saved > 0
        assert report.queueing_delay_reduction >= 0.0

    def test_zero_baseline_delay_guard(self):
        report = run_projection_what_if([make_job(0)], num_servers=4)
        assert report.queueing_delay_reduction == 0.0
        assert report.completion_time_reduction == pytest.approx(
            1.0
            - report.projected.mean_completion_time_hours
            / report.baseline.mean_completion_time_hours
        )
