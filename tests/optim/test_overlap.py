"""Communication-overlap scheduling (the Sec. V-B middle ground)."""

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.core.timemodel import estimate_breakdown, estimate_step_time
from repro.optim.overlap import (
    OverlapSchedule,
    overlap_speedup,
    overlapped_step_time,
)
from repro.trace import features_of_type


def ps_job(weight=2e9, flops=2e12, **kw):
    defaults = dict(
        name="job",
        architecture=Architecture.PS_WORKER,
        num_cnodes=16,
        batch_size=128,
        flop_count=flops,
        memory_access_bytes=20e9,
        input_bytes=10e6,
        weight_traffic_bytes=weight,
        dense_weight_bytes=weight,
    )
    defaults.update(kw)
    return WorkloadFeatures(**defaults)


class TestBounds:
    def test_between_the_papers_two_extremes(self, hardware):
        features = ps_job()
        breakdown = estimate_breakdown(features, hardware)
        for fraction in (0.0, 0.3, 0.6, 0.9, 1.0):
            overlapped = overlapped_step_time(
                features,
                hardware,
                OverlapSchedule(overlap_fraction=fraction, tail_fraction=0.05),
            )
            assert breakdown.total_ideal_overlap <= overlapped
            assert overlapped <= breakdown.total + 1e-12

    def test_zero_overlap_recovers_non_overlap(self, hardware):
        features = ps_job()
        breakdown = estimate_breakdown(features, hardware)
        overlapped = overlapped_step_time(
            features,
            hardware,
            OverlapSchedule(overlap_fraction=0.0, tail_fraction=0.0),
        )
        assert overlapped == pytest.approx(breakdown.total)

    def test_more_overlap_never_slower(self, hardware):
        features = ps_job()
        times = [
            overlapped_step_time(
                features,
                hardware,
                OverlapSchedule(overlap_fraction=f, tail_fraction=0.05),
            )
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert times == sorted(times, reverse=True)


class TestTail:
    def test_tail_limits_the_gain(self, hardware):
        features = ps_job(weight=20e9, flops=1e14)
        no_tail = overlapped_step_time(
            features,
            hardware,
            OverlapSchedule(overlap_fraction=1.0, tail_fraction=0.0),
        )
        big_tail = overlapped_step_time(
            features,
            hardware,
            OverlapSchedule(overlap_fraction=1.0, tail_fraction=0.5),
        )
        assert big_tail > no_tail


class TestSpeedup:
    def test_balanced_jobs_gain_most(self, hardware):
        # Overlap hides communication behind backward compute, so the
        # gain peaks when T_w is comparable to T_c; extreme jobs on
        # either side have little to hide (or nothing to hide behind).
        balanced = ps_job(weight=2.3e9, flops=10e12)  # T_w ~ T_c
        comm_extreme = ps_job(weight=50e9, flops=1e12)
        compute_extreme = ps_job(weight=0.05e9, flops=50e12)
        schedule = OverlapSchedule(overlap_fraction=0.9, tail_fraction=0.05)
        best = overlap_speedup(balanced, hardware, schedule)
        assert best > overlap_speedup(comm_extreme, hardware, schedule)
        assert best > overlap_speedup(compute_extreme, hardware, schedule)

    def test_speedup_at_least_one(self, hardware):
        assert overlap_speedup(ps_job(), hardware) >= 1.0


class TestValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            OverlapSchedule(overlap_fraction=1.5)
        with pytest.raises(ValueError):
            OverlapSchedule(tail_fraction=-0.1)


class TestTracePopulation:
    def test_wait_free_push_on_ps_jobs(self, trace, hardware):
        # Comm-heavy population: the schedule helps, but cannot beat the
        # ideal-overlap bound of ~3x.
        population = features_of_type(trace, Architecture.PS_WORKER)[:800]
        schedule = OverlapSchedule(overlap_fraction=0.9, tail_fraction=0.1)
        overlapped = sum(
            overlapped_step_time(f, hardware, schedule) for f in population
        )
        baseline = sum(estimate_step_time(f, hardware) for f in population)
        assert 1.02 < baseline / overlapped < 3.0
