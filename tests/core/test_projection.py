"""PS/Worker -> AllReduce projections (Sec. III-C1)."""

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures
from repro.core.projection import (
    ALLREDUCE_LOCAL_MAX_CNODES,
    project_to_allreduce_cluster,
    project_to_allreduce_local,
    projection_speedups,
)


def ps_job(num_cnodes=16, weight=300e6, **kw):
    defaults = dict(
        name="ps-job",
        architecture=Architecture.PS_WORKER,
        num_cnodes=num_cnodes,
        batch_size=128,
        flop_count=1e12,
        memory_access_bytes=10e9,
        input_bytes=10e6,
        weight_traffic_bytes=weight,
        dense_weight_bytes=weight,
    )
    defaults.update(kw)
    return WorkloadFeatures(**defaults)


class TestLocalProjection:
    def test_caps_cnodes_at_8(self):
        projected = project_to_allreduce_local(ps_job(num_cnodes=64))
        assert projected.num_cnodes == ALLREDUCE_LOCAL_MAX_CNODES
        assert projected.architecture is Architecture.ALLREDUCE_LOCAL

    def test_small_jobs_keep_cnodes(self):
        projected = project_to_allreduce_local(ps_job(num_cnodes=4))
        assert projected.num_cnodes == 4

    def test_requirements_carry_over(self):
        original = ps_job()
        projected = project_to_allreduce_local(original)
        assert projected.flop_count == original.flop_count
        assert projected.weight_traffic_bytes == original.weight_traffic_bytes

    def test_rejects_non_ps_jobs(self):
        local = ps_job().with_architecture(Architecture.ALLREDUCE_LOCAL, 8)
        with pytest.raises(ValueError):
            project_to_allreduce_local(local)

    def test_rejects_models_too_big_for_gpu(self, hardware):
        # AllReduce supports only the weight-replica mode; a 100 GB model
        # cannot live in one GPU's memory.
        huge = ps_job(weight=100e9, dense_weight_bytes=100e9)
        with pytest.raises(ValueError):
            project_to_allreduce_local(huge, hardware)

    def test_accepts_fitting_models_with_hardware(self, hardware):
        projected = project_to_allreduce_local(ps_job(), hardware)
        assert projected.architecture is Architecture.ALLREDUCE_LOCAL


class TestClusterProjection:
    def test_keeps_cnodes(self):
        projected = project_to_allreduce_cluster(ps_job(num_cnodes=64))
        assert projected.num_cnodes == 64
        assert projected.architecture is Architecture.ALLREDUCE_CLUSTER

    def test_rejects_non_ps_jobs(self):
        single = WorkloadFeatures(
            name="x",
            architecture=Architecture.SINGLE,
            num_cnodes=1,
            batch_size=1,
            flop_count=1.0,
            memory_access_bytes=1.0,
            input_bytes=1.0,
            weight_traffic_bytes=0.0,
        )
        with pytest.raises(ValueError):
            project_to_allreduce_cluster(single)


class TestProjectionSpeedups:
    def test_result_fields(self, hardware):
        result = projection_speedups(
            ps_job(), Architecture.ALLREDUCE_LOCAL, hardware
        )
        assert result.original.architecture is Architecture.PS_WORKER
        assert result.projected.architecture is Architecture.ALLREDUCE_LOCAL
        assert result.single_cnode_speedup > 0
        assert result.throughput_speedup > 0

    def test_throughput_penalty_for_big_jobs(self, hardware):
        result = projection_speedups(
            ps_job(num_cnodes=64), Architecture.ALLREDUCE_LOCAL, hardware
        )
        assert result.throughput_speedup == pytest.approx(
            result.single_cnode_speedup * 8 / 64
        )

    def test_sped_up_flags(self, hardware):
        weight_bound = ps_job(num_cnodes=8, weight=50e9, input_bytes=1.0)
        result = projection_speedups(
            weight_bound, Architecture.ALLREDUCE_LOCAL, hardware
        )
        assert result.sped_up
        assert result.single_cnode_speedup > 1.0

    def test_io_bound_job_not_sped_up(self, hardware):
        io_bound = ps_job(
            num_cnodes=8,
            weight=1e6,
            input_bytes=1e9,
            flop_count=1.0,
            memory_access_bytes=1.0,
        )
        result = projection_speedups(
            io_bound, Architecture.ALLREDUCE_LOCAL, hardware
        )
        assert result.single_cnode_speedup <= 1.0

    def test_cluster_speedup_capped_near_1_2(self, hardware):
        weight_bound = ps_job(num_cnodes=4, weight=50e9, input_bytes=1.0)
        result = projection_speedups(
            weight_bound, Architecture.ALLREDUCE_CLUSTER, hardware
        )
        assert 1.0 < result.single_cnode_speedup < 1.25

    def test_rejects_bad_target(self, hardware):
        with pytest.raises(ValueError):
            projection_speedups(ps_job(), Architecture.SINGLE, hardware)
