"""The calibrated synthetic PAI cluster trace (substitute for Sec. III).

The proprietary trace cannot be shipped, but the paper's collective
analysis consumes only per-job feature tuples.  This generator samples
jobs whose *time-domain* behaviour under the Sec. II-B model matches
every reported marginal statistic: workload-type mix and cNode shares
(Fig. 5), cNode-count and weight-size CDFs (Fig. 6), execution-time
breakdowns (Figs. 7-8) and the projection/sweep outcomes of Sec. III-C
(Figs. 9-11).  The calibration targets live in
:mod:`repro.trace.calibration` and are asserted by the test suite.

Sampling is parameterized in the time domain: given a job's weight
size (hence weight-traffic time ``T_w`` on its architecture's media),
the generator samples the communication-to-computation ratio
``rho = T_w / T_c``, the input ratio ``delta = T_d / T_c`` and the
memory-bound share ``beta`` of ``T_c``, then *back-derives* the feature
tuple (FLOPs, memory access, input bytes) so that applying the
analytical model under the paper's base assumptions reproduces exactly
those times.  This is the natural parameterization: the only ground
truth the paper publishes about the trace is the distribution of those
time shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.architectures import Architecture
from ..core.efficiency import PAPER_DEFAULT_EFFICIENCY
from ..core.features import WorkloadFeatures
from ..core.hardware import pai_default_hardware
from .distributions import (
    beta_with_mean,
    clipped_lognormal_int,
    lognormal,
    loguniform,
    power_of_two,
)
from .schema import JobRecord

__all__ = ["TraceConfig", "ClusterTraceGenerator", "generate_trace"]

_HARDWARE = pai_default_hardware()


@dataclass(frozen=True)
class TraceConfig:
    """Tunable marginals of the synthetic trace.

    Defaults are calibrated against the Sec. III statistics; see
    :mod:`repro.trace.calibration` for the target list.
    """

    num_jobs: int = 20000
    seed: int = 20190501

    # Workload-type mix (Fig. 5(a) job-level): 1w1g dominates job counts,
    # PS/Worker is 29 %, AllReduce under 1 %.
    share_1w1g: float = 0.60
    share_1wng: float = 0.10
    share_ps_worker: float = 0.29
    share_allreduce: float = 0.01

    # cNode-count distribution of PS/Worker jobs (Fig. 6(a)): about half
    # beyond 8 cNodes, ~0.7 % of all jobs beyond 128.
    ps_cnodes_median: float = 8.0
    ps_cnodes_sigma: float = 1.40
    ps_cnodes_max: int = 320

    # Weight-size distributions (Fig. 6(b)), bytes.
    small_weight_median: float = 25e6
    small_weight_sigma: float = 3.2
    ps_weight_median: float = 120e6
    ps_weight_sigma: float = 2.6
    ps_large_model_fraction: float = 0.20
    ps_large_weight_low: float = 10e9
    ps_large_weight_high: float = 300e9
    embedding_access_low: float = 3e-4
    embedding_access_high: float = 3e-2

    # Communication-to-computation ratio rho = T_w / T_c.
    ps_rho_median: float = 3.4
    ps_rho_sigma: float = 2.0
    ps_rho_cnode_exponent: float = 0.25
    local_rho_median: float = 1.5
    local_rho_sigma: float = 1.0

    # Input ratios.  1w1g/1wng jobs sample delta = T_d / T_c; PS/Worker
    # jobs sample gamma = T_d / T_w instead, because the Fig. 9
    # projection outcomes constrain the input time *relative to the
    # weight traffic* it competes against.  The PS population is a
    # mixture: most jobs have negligible input pipelines, but a cohort
    # of I/O-intensive jobs (large-sample recommendation/CTR training)
    # sits just above the contention break-even -- exactly the jobs
    # whose bottleneck shifts to PCIe under AllReduce-Local (Fig. 10).
    delta_median_1w1g: float = 0.065
    delta_sigma_1w1g: float = 1.7
    delta_median_dist: float = 0.025
    delta_sigma_dist: float = 0.9
    gamma_light_median: float = 0.004
    gamma_light_sigma: float = 1.2
    gamma_heavy_fraction: float = 0.35
    gamma_heavy_median: float = 0.26
    gamma_heavy_sigma: float = 0.6
    #: I/O-heavy jobs are typically lighter communicators (small-model,
    #: sample-hungry training); scales their rho median down.
    gamma_heavy_rho_scale: float = 0.35

    # Memory-bound share beta of T_c (memory-bound exceeds compute-bound
    # on average: Sec. III-B).
    beta_mean: float = 0.62
    beta_concentration: float = 7.0

    # Absolute computation-time scale (seconds per step) for jobs whose
    # T_c is not anchored by a weight-derived T_w (1w1g).
    compute_time_median: float = 0.18
    compute_time_sigma: float = 0.95

    trace_days: int = 51
    #: Tenant groups; assignment is Zipf-skewed, and the big production
    #: tenants (the first few groups) own most distributed jobs --
    #: matching the heavy per-tenant skew multi-tenant GPU-cluster
    #: studies report (Jeon et al., cited by the paper).
    user_groups: int = 24
    production_groups: int = 5

    def __post_init__(self) -> None:
        shares = (
            self.share_1w1g
            + self.share_1wng
            + self.share_ps_worker
            + self.share_allreduce
        )
        if abs(shares - 1.0) > 1e-9:
            raise ValueError(f"workload-type shares must sum to 1, got {shares}")
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be positive")


class ClusterTraceGenerator:
    """Generates :class:`JobRecord` populations per :class:`TraceConfig`."""

    def __init__(self, config: TraceConfig = TraceConfig()) -> None:
        self.config = config

    # ---- time-domain helpers ---------------------------------------

    def _weight_time(self, features_arch: Architecture, traffic: float) -> float:
        """T_w of a traffic volume on the architecture's media."""
        seconds = 0.0
        for medium in features_arch.weight_media:
            bandwidth = _HARDWARE.bandwidth_of(medium)
            seconds += traffic / (bandwidth * PAPER_DEFAULT_EFFICIENCY.for_medium(medium))
        return seconds

    def _derive_compute(self, rng: np.random.Generator, compute_time: float) -> tuple:
        """Split T_c into (flop_count, memory_access_bytes)."""
        beta = beta_with_mean(
            rng, self.config.beta_mean, self.config.beta_concentration
        )
        gpu = _HARDWARE.gpu
        efficiency = PAPER_DEFAULT_EFFICIENCY
        flops = compute_time * (1.0 - beta) * gpu.peak_flops * efficiency.compute
        access = compute_time * beta * gpu.memory_bandwidth * efficiency.memory
        return flops, access

    def _derive_input(
        self, data_time: float, contention: int
    ) -> float:
        """Input bytes whose transfer takes ``data_time`` under contention."""
        pcie = _HARDWARE.pcie.bandwidth * PAPER_DEFAULT_EFFICIENCY.pcie
        return data_time * pcie / max(contention, 1)

    # ---- per-type samplers -----------------------------------------

    def _sample_1w1g(self, rng: np.random.Generator, index: int) -> WorkloadFeatures:
        config = self.config
        weight = lognormal(rng, config.small_weight_median, config.small_weight_sigma)
        compute_time = lognormal(
            rng, config.compute_time_median, config.compute_time_sigma
        )
        delta = lognormal(rng, config.delta_median_1w1g, config.delta_sigma_1w1g)
        flops, access = self._derive_compute(rng, compute_time)
        return WorkloadFeatures(
            name=f"job-{index}-1w1g",
            architecture=Architecture.SINGLE,
            num_cnodes=1,
            batch_size=power_of_two(rng, 4, 10),
            flop_count=flops,
            memory_access_bytes=access,
            input_bytes=self._derive_input(delta * compute_time, 1),
            weight_traffic_bytes=0.0,
            dense_weight_bytes=weight,
        )

    def _sample_local_distributed(
        self, rng: np.random.Generator, index: int, architecture: Architecture
    ) -> WorkloadFeatures:
        """1wng and AllReduce-Local jobs: local multi-GPU."""
        config = self.config
        num_cnodes = int(rng.integers(2, 9))
        weight = lognormal(rng, config.small_weight_median, config.small_weight_sigma)
        traffic = weight  # pull + push of the trainables == at-rest bytes
        weight_time = self._weight_time(architecture, traffic)
        rho = lognormal(rng, config.local_rho_median, config.local_rho_sigma)
        compute_time = weight_time / rho
        delta = lognormal(rng, config.delta_median_dist, config.delta_sigma_dist)
        flops, access = self._derive_compute(rng, compute_time)
        return WorkloadFeatures(
            name=f"job-{index}-{architecture.value}",
            architecture=architecture,
            num_cnodes=num_cnodes,
            batch_size=power_of_two(rng, 4, 10),
            flop_count=flops,
            memory_access_bytes=access,
            input_bytes=self._derive_input(delta * compute_time, num_cnodes),
            weight_traffic_bytes=traffic,
            dense_weight_bytes=weight,
        )

    def _sample_ps_worker(
        self, rng: np.random.Generator, index: int
    ) -> WorkloadFeatures:
        config = self.config
        num_cnodes = clipped_lognormal_int(
            rng,
            config.ps_cnodes_median,
            config.ps_cnodes_sigma,
            low=1,
            high=config.ps_cnodes_max,
        )
        is_large = rng.random() < config.ps_large_model_fraction
        if is_large:
            weight = loguniform(
                rng, config.ps_large_weight_low, config.ps_large_weight_high
            )
            embedding = 0.98 * weight
            dense = weight - embedding
            access_fraction = loguniform(
                rng, config.embedding_access_low, config.embedding_access_high
            )
            traffic = dense + access_fraction * embedding
        else:
            weight = lognormal(rng, config.ps_weight_median, config.ps_weight_sigma)
            embedding = 0.0
            dense = weight
            traffic = weight
        weight_time = self._weight_time(Architecture.PS_WORKER, traffic)
        # Larger jobs skew further toward communication (Sec. III-B).
        scale = (num_cnodes / 8.0) ** config.ps_rho_cnode_exponent
        io_heavy = rng.random() < config.gamma_heavy_fraction
        if io_heavy:
            scale *= config.gamma_heavy_rho_scale
            gamma = lognormal(
                rng, config.gamma_heavy_median, config.gamma_heavy_sigma
            )
        else:
            gamma = lognormal(
                rng, config.gamma_light_median, config.gamma_light_sigma
            )
        rho = lognormal(rng, config.ps_rho_median * scale, config.ps_rho_sigma)
        compute_time = weight_time / rho
        flops, access = self._derive_compute(rng, compute_time)
        return WorkloadFeatures(
            name=f"job-{index}-ps",
            architecture=Architecture.PS_WORKER,
            num_cnodes=num_cnodes,
            batch_size=power_of_two(rng, 5, 11),
            flop_count=flops,
            memory_access_bytes=access,
            input_bytes=self._derive_input(gamma * weight_time, 1),
            weight_traffic_bytes=traffic,
            dense_weight_bytes=dense,
            embedding_weight_bytes=embedding,
        )

    # ---- trace assembly --------------------------------------------

    def generate(self) -> List[JobRecord]:
        """Generate the full synthetic trace (deterministic per seed)."""
        from ..obs import get_obs

        with get_obs().trace(
            "trace.generate",
            num_jobs=self.config.num_jobs,
            seed=self.config.seed,
        ):
            return self._generate()

    def _generate(self) -> List[JobRecord]:
        config = self.config
        rng = np.random.default_rng(config.seed)
        type_draws = rng.choice(
            4,
            size=config.num_jobs,
            p=[
                config.share_1w1g,
                config.share_1wng,
                config.share_ps_worker,
                config.share_allreduce,
            ],
        )
        group_weights = 1.0 / np.arange(1, config.user_groups + 1)
        group_weights /= group_weights.sum()
        production_weights = 1.0 / np.arange(1, config.production_groups + 1)
        production_weights /= production_weights.sum()

        jobs: List[JobRecord] = []
        for index, draw in enumerate(type_draws):
            if draw == 0:
                features = self._sample_1w1g(rng, index)
            elif draw == 1:
                features = self._sample_local_distributed(
                    rng, index, Architecture.LOCAL_CENTRALIZED
                )
            elif draw == 2:
                features = self._sample_ps_worker(rng, index)
            else:
                features = self._sample_local_distributed(
                    rng, index, Architecture.ALLREDUCE_LOCAL
                )
            if features.architecture is Architecture.PS_WORKER:
                # Distributed production jobs concentrate in a few teams.
                group = int(rng.choice(config.production_groups, p=production_weights))
            else:
                group = int(rng.choice(config.user_groups, p=group_weights))
            jobs.append(
                JobRecord(
                    job_id=index,
                    features=features,
                    submit_day=int(rng.integers(0, config.trace_days)),
                    user_group=f"group-{group}",
                )
            )
        return jobs


def generate_trace(
    num_jobs: int = 20000,
    seed: int = 20190501,
    config: TraceConfig = None,
) -> List[JobRecord]:
    """Convenience wrapper: generate the default calibrated trace."""
    if config is None:
        config = TraceConfig(num_jobs=num_jobs, seed=seed)
    return ClusterTraceGenerator(config).generate()
