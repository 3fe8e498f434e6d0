"""The synthetic trace generator: determinism, structure, consistency."""

import pytest

from repro.core.architectures import Architecture
from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
from repro.core.hardware import pai_default_hardware
from repro.core.timemodel import estimate_breakdown
from repro.trace.generator import ClusterTraceGenerator, TraceConfig, generate_trace


def jobs_of_type(jobs, architecture):
    """The jobs of one workload type, in trace order."""
    return [job for job in jobs if job.workload_type is architecture]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first = generate_trace(num_jobs=200, seed=3)
        second = generate_trace(num_jobs=200, seed=3)
        assert [j.features for j in first] == [j.features for j in second]

    def test_different_seed_differs(self):
        first = generate_trace(num_jobs=200, seed=3)
        second = generate_trace(num_jobs=200, seed=4)
        assert [j.features for j in first] != [j.features for j in second]


class TestStructure:
    def test_job_count(self, small_trace):
        assert len(small_trace) == 400

    def test_job_ids_unique(self, small_trace):
        assert len({j.job_id for j in small_trace}) == len(small_trace)

    def test_all_types_present(self, trace):
        for arch in (
            Architecture.SINGLE,
            Architecture.LOCAL_CENTRALIZED,
            Architecture.PS_WORKER,
            Architecture.ALLREDUCE_LOCAL,
        ):
            assert jobs_of_type(list(trace), arch)

    def test_submit_days_in_window(self, small_trace):
        assert all(0 <= j.submit_day < 51 for j in small_trace)

    def test_user_groups_assigned(self, small_trace):
        groups = {j.user_group for j in small_trace}
        assert len(groups) > 1

    def test_1w1g_jobs_have_one_cnode(self, trace):
        for job in jobs_of_type(list(trace), Architecture.SINGLE):
            assert job.num_cnodes == 1

    def test_local_jobs_capped_at_8(self, trace):
        for arch in (Architecture.LOCAL_CENTRALIZED, Architecture.ALLREDUCE_LOCAL):
            for job in jobs_of_type(list(trace), arch):
                assert 2 <= job.num_cnodes <= 8

    def test_ps_cnodes_capped(self, trace):
        for job in jobs_of_type(list(trace), Architecture.PS_WORKER):
            assert 1 <= job.num_cnodes <= 400

    def test_large_ps_models_are_mostly_embeddings(self, trace):
        # The 10-300 GB cohort is embedding-table-dominated (Sec. III-A:
        # commodity embedding / search / recommendation); a minority of
        # dense giants from the small-model tail is acceptable.
        large = [
            j
            for j in jobs_of_type(list(trace), Architecture.PS_WORKER)
            if j.features.weight_bytes > 10e9
        ]
        assert large
        with_embeddings = [
            j for j in large if j.features.embedding_weight_bytes > 0
        ]
        assert len(with_embeddings) / len(large) > 0.75
        for job in with_embeddings:
            assert (
                job.features.embedding_weight_bytes
                > job.features.dense_weight_bytes
            )


class TestTimeDomainConsistency:
    """The generator back-derives features from sampled times; applying
    the analytical model must reproduce valid, finite breakdowns."""

    def test_breakdowns_are_finite_and_positive(self, small_trace):
        hardware = pai_default_hardware()
        for job in small_trace:
            breakdown = estimate_breakdown(
                job.features, hardware, PAPER_DEFAULT_EFFICIENCY
            )
            assert breakdown.total > 0
            assert breakdown.computation > 0

    def test_ps_jobs_have_weight_time(self, small_trace):
        hardware = pai_default_hardware()
        for job in jobs_of_type(list(small_trace), Architecture.PS_WORKER):
            breakdown = estimate_breakdown(job.features, hardware)
            assert breakdown.weight_total > 0
            assert set(breakdown.weight_comm) == {"Ethernet", "PCIe"}


class TestConfigValidation:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TraceConfig(share_1w1g=0.9, share_1wng=0.9)

    def test_positive_job_count(self):
        with pytest.raises(ValueError):
            TraceConfig(num_jobs=0)

    def test_custom_mix(self):
        config = TraceConfig(
            num_jobs=300,
            seed=5,
            share_1w1g=0.0,
            share_1wng=0.0,
            share_ps_worker=1.0,
            share_allreduce=0.0,
        )
        jobs = ClusterTraceGenerator(config).generate()
        assert all(
            j.workload_type is Architecture.PS_WORKER for j in jobs
        )
