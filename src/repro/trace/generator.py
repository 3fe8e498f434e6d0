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

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from ..core.architectures import Architecture
from ..core.efficiency import PAPER_DEFAULT_EFFICIENCY
from ..core.features import WorkloadFeatures
from ..core.hardware import pai_default_hardware
from .schema import JobRecord

__all__ = ["TraceConfig", "ClusterTraceGenerator", "generate_trace"]

_HARDWARE = pai_default_hardware()

# TraceConfig's field checks, by kind: (fields, test, requirement).
# Each test is written so NaN fails it (every comparison with NaN is
# false), and each numpy sampler's own argument check happens here,
# once, naming the field.
_FIELD_CHECKS = (
    (
        ("num_jobs", "trace_days", "user_groups", "production_groups",
         "ps_cnodes_max"),
        lambda value: type(value) is int and value >= 1,
        "an int >= 1",
    ),
    (("seed",), lambda value: type(value) is int and value >= 0, "an int >= 0"),
    (
        # Log-normal medians, log-uniform bounds and scales.
        ("ps_cnodes_median", "small_weight_median", "ps_weight_median",
         "ps_large_weight_low", "ps_large_weight_high",
         "embedding_access_low", "embedding_access_high", "ps_rho_median",
         "local_rho_median", "delta_median_1w1g", "delta_median_dist",
         "gamma_light_median", "gamma_heavy_median", "gamma_heavy_rho_scale",
         "beta_concentration", "compute_time_median"),
        lambda value: 0.0 < value < math.inf,
        "finite and > 0",
    ),
    (
        ("ps_cnodes_sigma", "small_weight_sigma", "ps_weight_sigma",
         "ps_rho_sigma", "local_rho_sigma", "delta_sigma_1w1g",
         "delta_sigma_dist", "gamma_light_sigma", "gamma_heavy_sigma",
         "compute_time_sigma"),
        lambda value: 0.0 <= value < math.inf,
        "finite and >= 0",
    ),
    (
        ("share_1w1g", "share_1wng", "share_ps_worker", "share_allreduce",
         "ps_large_model_fraction", "gamma_heavy_fraction"),
        lambda value: 0.0 <= value <= 1.0,
        "in [0, 1]",
    ),
    (("beta_mean",), lambda value: 0.0 < value < 1.0, "in (0, 1)"),
    (
        ("ps_rho_cnode_exponent",),
        lambda value: -math.inf < value < math.inf,
        "finite",
    ),
)

#: The log-uniform draws' (low, high) field pairs.
_LOG_UNIFORM_BOUNDS = (
    ("ps_large_weight_low", "ps_large_weight_high"),
    ("embedding_access_low", "embedding_access_high"),
)


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
        for names, valid, requirement in _FIELD_CHECKS:
            for name in names:
                value = getattr(self, name)
                if not valid(value):
                    raise ValueError(
                        f"{name} must be {requirement}, got {value!r}"
                    )
        for low, high in _LOG_UNIFORM_BOUNDS:
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must not exceed {high}")
        shares = (
            self.share_1w1g
            + self.share_1wng
            + self.share_ps_worker
            + self.share_allreduce
        )
        if abs(shares - 1.0) > 1e-9:
            raise ValueError(f"workload-type shares must sum to 1, got {shares}")


def _choice_cdf(weights: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice(k, p=weights)`` searches.

    ``choice`` draws one ``random()`` double and returns
    ``cdf.searchsorted(u, side="right")`` over ``cumsum(p) /
    cumsum(p)[-1]``, so ``bisect_right`` over this list with the same
    double picks the same index from the same stream position.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _zipf_weights(count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1)
    weights /= weights.sum()
    return weights


def _media_rates(architecture: Architecture) -> Sequence[float]:
    """``bandwidth * efficiency`` of each medium on the weight path."""
    return [
        _HARDWARE.bandwidth_of(medium)
        * PAPER_DEFAULT_EFFICIENCY.for_medium(medium)
        for medium in architecture.weight_media
    ]


class ClusterTraceGenerator:
    """Generates :class:`JobRecord` populations per :class:`TraceConfig`.

    :meth:`rows` is the one draw loop; :meth:`generate` builds records
    from its rows, and ``pai-repro trace --format columnar`` streams them
    into a store through :func:`repro.trace.columnar.write_rows`.
    """

    def __init__(self, config: TraceConfig = TraceConfig()) -> None:
        self.config = config

    def generate(self) -> List[JobRecord]:
        """Generate the full synthetic trace (deterministic per seed)."""
        return [
            JobRecord(row[0], WorkloadFeatures(*row[3:]), row[1], row[2])
            for row in self.rows()
        ]

    def rows(self) -> Iterator[tuple]:
        """Yield the trace one job at a time, as flat
        :data:`repro.trace.schema.ROW_FIELDS` tuples, deterministic per
        seed.

        Nothing is validated here: :meth:`generate` builds validated
        records, and the columnar writer checks each shard's columns.
        """
        from ..obs import get_obs

        config = self.config
        with get_obs().trace(
            "trace.generate", num_jobs=config.num_jobs, seed=config.seed
        ):
            yield from self._draw()

    def _draw(self) -> Iterator[tuple]:
        """The per-job draws, in the stream's fixed order.

        Each job's ``rng`` calls, their order and their arguments are
        part of the trace's definition, as is each float expression's
        association order: change either and every seed names another
        trace (``tests/trace/test_generator.py`` pins three).  The draws
        cannot be batched: ``lognormal`` and ``beta`` consume a variable
        number of raw words.  Only per-config constants (log medians,
        beta's ``a`` and ``b``, media rates) are hoisted.
        """
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
        ).tolist()
        user_cdf = _choice_cdf(_zipf_weights(config.user_groups))
        user_labels = [f"group-{g}" for g in range(config.user_groups)]
        production_cdf = _choice_cdf(_zipf_weights(config.production_groups))
        production_labels = [
            f"group-{g}" for g in range(config.production_groups)
        ]

        random = rng.random
        integers = rng.integers
        lognormal = rng.lognormal
        uniform = rng.uniform
        beta = rng.beta
        log = math.log
        exp = math.exp

        trace_days = config.trace_days
        log_small_weight = log(config.small_weight_median)
        small_weight_sigma = config.small_weight_sigma
        log_compute_time = log(config.compute_time_median)
        compute_time_sigma = config.compute_time_sigma
        log_delta_1w1g = log(config.delta_median_1w1g)
        delta_sigma_1w1g = config.delta_sigma_1w1g
        log_delta_dist = log(config.delta_median_dist)
        delta_sigma_dist = config.delta_sigma_dist
        log_local_rho = log(config.local_rho_median)
        local_rho_sigma = config.local_rho_sigma
        log_ps_cnodes = log(config.ps_cnodes_median)
        ps_cnodes_sigma = config.ps_cnodes_sigma
        ps_cnodes_max = config.ps_cnodes_max
        large_fraction = config.ps_large_model_fraction
        log_large_low = log(config.ps_large_weight_low)
        log_large_high = log(config.ps_large_weight_high)
        log_access_low = log(config.embedding_access_low)
        log_access_high = log(config.embedding_access_high)
        log_ps_weight = log(config.ps_weight_median)
        ps_weight_sigma = config.ps_weight_sigma
        rho_exponent = config.ps_rho_cnode_exponent
        heavy_fraction = config.gamma_heavy_fraction
        heavy_rho_scale = config.gamma_heavy_rho_scale
        log_gamma_heavy = log(config.gamma_heavy_median)
        gamma_heavy_sigma = config.gamma_heavy_sigma
        log_gamma_light = log(config.gamma_light_median)
        gamma_light_sigma = config.gamma_light_sigma
        ps_rho_median = config.ps_rho_median
        ps_rho_sigma = config.ps_rho_sigma
        beta_a = config.beta_mean * config.beta_concentration
        beta_b = (1.0 - config.beta_mean) * config.beta_concentration

        # The T_c split multiplies left to right (``T_c * (1 - beta) *
        # peak * efficiency``), so each factor stays separate: a
        # pre-multiplied ``peak * efficiency`` would round differently.
        gpu = _HARDWARE.gpu
        peak_flops = gpu.peak_flops
        compute_efficiency = PAPER_DEFAULT_EFFICIENCY.compute
        memory_bandwidth = gpu.memory_bandwidth
        memory_efficiency = PAPER_DEFAULT_EFFICIENCY.memory
        pcie_rate = _HARDWARE.pcie.bandwidth * PAPER_DEFAULT_EFFICIENCY.pcie
        # T_w adds traffic / rate once per medium on the path.
        ethernet_rate, ps_pcie_rate = _media_rates(Architecture.PS_WORKER)
        local = {}
        for draw, architecture in (
            (1, Architecture.LOCAL_CENTRALIZED),
            (3, Architecture.ALLREDUCE_LOCAL),
        ):
            (rate,) = _media_rates(architecture)
            local[draw] = (architecture, f"-{architecture.value}", rate)
        single = Architecture.SINGLE
        ps_worker = Architecture.PS_WORKER

        for index, draw in enumerate(type_draws):
            # Each type draws its own times; T_c's beta split, the batch
            # size, the group and the day follow in the same order for all.
            if draw == 0:
                architecture, suffix, num_cnodes, contention = single, "-1w1g", 1, 1
                weight = lognormal(log_small_weight, small_weight_sigma)
                compute_time = lognormal(log_compute_time, compute_time_sigma)
                delta = lognormal(log_delta_1w1g, delta_sigma_1w1g)
                data_time = delta * compute_time
                traffic, dense, embedding = 0.0, weight, 0.0
                batch_low, labels, cdf = 4, user_labels, user_cdf
            elif draw == 2:
                architecture, suffix, contention = ps_worker, "-ps", 1
                num_cnodes = max(
                    1,
                    min(
                        ps_cnodes_max,
                        int(round(lognormal(log_ps_cnodes, ps_cnodes_sigma))),
                    ),
                )
                if random() < large_fraction:
                    weight = exp(uniform(log_large_low, log_large_high))
                    embedding = 0.98 * weight
                    dense = weight - embedding
                    access_fraction = exp(
                        uniform(log_access_low, log_access_high)
                    )
                    traffic = dense + access_fraction * embedding
                else:
                    weight = lognormal(log_ps_weight, ps_weight_sigma)
                    embedding = 0.0
                    dense = weight
                    traffic = weight
                weight_time = traffic / ethernet_rate + traffic / ps_pcie_rate
                # Larger jobs skew further toward communication (Sec. III-B).
                scale = (num_cnodes / 8.0) ** rho_exponent
                if random() < heavy_fraction:
                    scale *= heavy_rho_scale
                    gamma = lognormal(log_gamma_heavy, gamma_heavy_sigma)
                else:
                    gamma = lognormal(log_gamma_light, gamma_light_sigma)
                rho = lognormal(log(ps_rho_median * scale), ps_rho_sigma)
                compute_time = weight_time / rho
                data_time = gamma * weight_time
                # Distributed production jobs concentrate in a few teams.
                batch_low, labels, cdf = 5, production_labels, production_cdf
            else:
                architecture, suffix, rate = local[draw]
                num_cnodes = contention = int(integers(2, 9))
                # Pull + push of the trainables == the at-rest bytes.
                weight = lognormal(log_small_weight, small_weight_sigma)
                weight_time = weight / rate
                rho = lognormal(log_local_rho, local_rho_sigma)
                compute_time = weight_time / rho
                delta = lognormal(log_delta_dist, delta_sigma_dist)
                data_time = delta * compute_time
                traffic, dense, embedding = weight, weight, 0.0
                batch_low, labels, cdf = 4, user_labels, user_cdf
            share = beta(beta_a, beta_b)
            batch_size = 1 << int(integers(batch_low, batch_low + 7))
            group = labels[bisect_right(cdf, random())]
            yield (
                index,
                int(integers(0, trace_days)),
                group,
                f"job-{index}{suffix}",
                architecture,
                num_cnodes,
                batch_size,
                compute_time * (1.0 - share) * peak_flops * compute_efficiency,
                compute_time * share * memory_bandwidth * memory_efficiency,
                # Input bytes whose transfer takes data_time over the
                # PCIe share left by the job's co-located cNodes.
                data_time * pcie_rate / contention,
                traffic,
                dense,
                embedding,
                0.0,
            )


def generate_trace(
    num_jobs: int = 20000,
    seed: int = 20190501,
    config: TraceConfig = None,
) -> List[JobRecord]:
    """Convenience wrapper: generate the default calibrated trace."""
    if config is None:
        config = TraceConfig(num_jobs=num_jobs, seed=seed)
    return ClusterTraceGenerator(config).generate()
