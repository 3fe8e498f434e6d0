"""Crossover analysis: break-even Ethernet bandwidth."""

import pytest

from repro.core.architectures import Architecture
from repro.core.crossover import crossover_distribution, ethernet_crossover
from repro.core.features import WorkloadFeatures
from repro.core.projection import projection_speedups


def ps_job(weight=2e9, flops=5e12, io=20e6, num_cnodes=16):
    return WorkloadFeatures(
        name="job",
        architecture=Architecture.PS_WORKER,
        num_cnodes=num_cnodes,
        batch_size=128,
        flop_count=flops,
        memory_access_bytes=20e9,
        input_bytes=io,
        weight_traffic_bytes=weight,
        dense_weight_bytes=weight,
    )


class TestEthernetCrossover:
    def test_comm_bound_jobs_prefer_nvlink_at_any_fabric_speed(self, hardware):
        # The PS/Worker weight path includes a PCIe hop slower than
        # NVLink, so no Ethernet upgrade saves it -- the paper's core
        # point about high-speed GPU interconnects.
        result = ethernet_crossover(ps_job(), hardware)
        assert not result.has_crossover
        assert result.always_better

    def _marginal_job(self):
        # I/O chosen so the 8x contention penalty lands between the
        # residual weight savings at infinite Ethernet and the savings
        # at a slow fabric: a finite crossover exists.
        return ps_job(weight=2e9, io=0.5e9, flops=5e12)

    def test_marginal_job_has_finite_crossover(self, hardware):
        result = ethernet_crossover(self._marginal_job(), hardware)
        assert result.has_crossover
        assert result.value > hardware.ethernet.bandwidth

    def test_break_even_is_actually_break_even(self, hardware):
        job = self._marginal_job()
        result = ethernet_crossover(job, hardware)
        at_crossover = hardware.with_resource("ethernet", result.value)
        speedup = projection_speedups(
            job, Architecture.ALLREDUCE_LOCAL, at_crossover
        ).single_cnode_speedup
        assert speedup == pytest.approx(1.0, abs=1e-5)

    def test_closed_form_for_weight_bound_job(self, hardware):
        """For a pure weight-bound job the break-even solves
        S/(B*eff) + S/(B_p*eff) = k*Td + S/(B_n*eff) analytically."""
        job = ps_job(weight=10e9, flops=1.0, io=1.0)
        result = ethernet_crossover(job, hardware)
        eff = 0.7
        s = job.weight_traffic_bytes
        # T_ps(B) = s/(B eff) + s/(10e9 eff); T_arl = s/(50e9 eff)
        # (I/O and compute are negligible by construction).
        expected = 1.0 / (1.0 / (50e9) - 1.0 / (10e9) + 0)  # negative!
        # The PCIe hop alone already exceeds the NVLink time, so NO
        # finite bandwidth saves PS/Worker:
        assert expected < 0
        assert not result.has_crossover
        assert result.always_better

    def test_io_bound_job_never_benefits(self, hardware):
        job = ps_job(weight=1e6, io=2e9, flops=1e11)
        result = ethernet_crossover(job, hardware)
        assert not result.has_crossover
        assert not result.always_better

    def test_range_validation(self, hardware):
        with pytest.raises(ValueError):
            ethernet_crossover(ps_job(), hardware, low=10.0, high=5.0)


class TestDistribution:
    def test_over_trace_population(self, trace, hardware):
        from repro.trace import features_of_type

        population = features_of_type(
            list(trace), Architecture.PS_WORKER
        )[:300]
        results = crossover_distribution(population, hardware)
        assert len(results) == 300
        always = [r for r in results if r.always_better]
        finite = [r for r in results if r.has_crossover]
        # Most jobs want NVLink at any fabric speed (the PCIe hop floors
        # PS/Worker); the I/O-heavy cohort has a finite break-even
        # bandwidth beyond which keeping PS/Worker wins.
        assert len(always) > len(results) / 2
        assert finite
        assert all(r.value > hardware.ethernet.bandwidth / 10 for r in finite)

    def test_non_ps_jobs_ignored(self, hardware):
        single = WorkloadFeatures(
            name="s",
            architecture=Architecture.SINGLE,
            num_cnodes=1,
            batch_size=1,
            flop_count=1.0,
            memory_access_bytes=1.0,
            input_bytes=1.0,
            weight_traffic_bytes=0.0,
        )
        assert crossover_distribution([single], hardware) == []
