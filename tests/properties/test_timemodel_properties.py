"""Property-based invariants of the analytical model."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import Architecture
from repro.core.efficiency import EfficiencyModel
from repro.core.features import WorkloadFeatures
from repro.core.hardware import pai_default_hardware
from repro.core.projection import (
    project_to_allreduce_cluster,
    project_to_allreduce_local,
)
from repro.core.sensitivity import eq3_weight_bound_speedup
from repro.core.throughput import job_throughput
from repro.core.timemodel import (
    PAPER_MODEL_OPTIONS,
    estimate_breakdown,
    estimate_step_time,
)

HARDWARE = pai_default_hardware()


def uniform_efficiency(value):
    """An :class:`EfficiencyModel` with every component at ``value``."""
    return EfficiencyModel(compute=value, memory=value, pcie=value, network=value)


positive = st.floats(min_value=1.0, max_value=1e15, allow_nan=False)
non_negative = st.floats(min_value=0.0, max_value=1e15, allow_nan=False)
architectures = st.sampled_from(
    [
        Architecture.LOCAL_CENTRALIZED,
        Architecture.PS_WORKER,
        Architecture.ALLREDUCE_LOCAL,
        Architecture.ALLREDUCE_CLUSTER,
    ]
)


@st.composite
def workloads(draw, architecture=None):
    if architecture is None:
        architecture = draw(architectures)
    max_cnodes = min(architecture.max_local_cnodes, 256)
    num_cnodes = draw(st.integers(min_value=2, max_value=max_cnodes))
    return WorkloadFeatures(
        name="prop",
        architecture=architecture,
        num_cnodes=num_cnodes,
        batch_size=draw(st.integers(min_value=1, max_value=8192)),
        flop_count=draw(positive),
        memory_access_bytes=draw(positive),
        input_bytes=draw(non_negative),
        weight_traffic_bytes=draw(positive),
        dense_weight_bytes=draw(positive),
    )


class TestBreakdownInvariants:
    @given(features=workloads())
    def test_components_non_negative(self, features):
        breakdown = estimate_breakdown(features, HARDWARE)
        assert breakdown.data_io >= 0
        assert breakdown.compute_flops >= 0
        assert breakdown.compute_memory >= 0
        assert breakdown.weight_total >= 0

    @given(features=workloads())
    def test_fractions_sum_to_one(self, features):
        fractions = estimate_breakdown(features, HARDWARE).fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    @given(features=workloads())
    def test_hardware_shares_sum_to_one(self, features):
        shares = estimate_breakdown(features, HARDWARE).hardware_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    @given(features=workloads())
    def test_ideal_overlap_never_slower(self, features):
        breakdown = estimate_breakdown(features, HARDWARE)
        assert breakdown.total_ideal_overlap <= breakdown.total + 1e-12

    @given(features=workloads())
    def test_ideal_overlap_at_least_a_third(self, features):
        # max of three non-negative terms is at least their mean.
        breakdown = estimate_breakdown(features, HARDWARE)
        assert breakdown.total_ideal_overlap >= breakdown.total / 3 - 1e-12


class TestMonotonicity:
    @given(
        features=workloads(),
        resource=st.sampled_from(
            ["ethernet", "pcie", "nvlink", "gpu_flops", "gpu_memory"]
        ),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_upgrading_any_resource_never_slows(self, features, resource, factor):
        base_value = {
            "ethernet": HARDWARE.ethernet.bandwidth,
            "pcie": HARDWARE.pcie.bandwidth,
            "nvlink": HARDWARE.nvlink.bandwidth,
            "gpu_flops": HARDWARE.gpu.peak_flops,
            "gpu_memory": HARDWARE.gpu.memory_bandwidth,
        }[resource]
        upgraded = HARDWARE.with_resource(resource, base_value * factor)
        before = estimate_step_time(features, HARDWARE)
        after = estimate_step_time(features, upgraded)
        assert after <= before * (1 + 1e-9)

    @given(
        features=workloads(),
        efficiency=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_higher_efficiency_never_slows(self, features, efficiency):
        slow = estimate_step_time(
            features, HARDWARE, uniform_efficiency(efficiency / 2)
        )
        fast = estimate_step_time(
            features, HARDWARE, uniform_efficiency(efficiency)
        )
        assert fast <= slow * (1 + 1e-9)

    @given(features=workloads())
    def test_uniform_efficiency_scales_linearly(self, features):
        at_70 = estimate_step_time(features, HARDWARE, uniform_efficiency(0.7))
        at_35 = estimate_step_time(features, HARDWARE, uniform_efficiency(0.35))
        assert abs(at_35 - 2 * at_70) < 1e-9 * max(at_35, 1.0)


class TestProjectionInvariants:
    @given(features=workloads(architecture=Architecture.PS_WORKER))
    def test_local_projection_caps_cnodes(self, features):
        projected = project_to_allreduce_local(features)
        assert projected.num_cnodes == min(features.num_cnodes, 8)

    @given(features=workloads(architecture=Architecture.PS_WORKER))
    def test_projection_preserves_fundamentals(self, features):
        for projected in (
            project_to_allreduce_local(features),
            project_to_allreduce_cluster(features),
        ):
            assert projected.flop_count == features.flop_count
            assert projected.memory_access_bytes == features.memory_access_bytes
            assert projected.input_bytes == features.input_bytes
            assert projected.weight_traffic_bytes == features.weight_traffic_bytes

    @given(features=workloads(architecture=Architecture.PS_WORKER))
    def test_local_projection_speedup_below_eq3(self, features):
        # No job can beat the pure weight-bound ratio of Eq. 3.
        projected = project_to_allreduce_local(features)
        speedup = estimate_step_time(features, HARDWARE) / estimate_step_time(
            projected, HARDWARE
        )
        assert speedup <= eq3_weight_bound_speedup(HARDWARE) + 1e-6


class TestThroughput:
    @given(features=workloads(), factor=st.integers(min_value=2, max_value=8))
    def test_batch_scaling(self, features, factor):
        bigger = dataclasses.replace(
            features, batch_size=features.batch_size * factor
        )
        assert job_throughput(bigger, HARDWARE) > job_throughput(
            features, HARDWARE
        )


class TestOptionInvariants:
    @given(features=workloads())
    def test_paper_options_reproducible(self, features):
        first = estimate_breakdown(features, HARDWARE, options=PAPER_MODEL_OPTIONS)
        second = estimate_breakdown(features, HARDWARE, options=PAPER_MODEL_OPTIONS)
        assert first == second
