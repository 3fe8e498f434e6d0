"""The synthetic trace generator: the pinned stream, structure,
consistency, and the configuration's checks."""

import dataclasses
import hashlib
import json
import math
import re
from bisect import bisect_right

import numpy as np
import pytest

from repro.analysis.cli import main
from repro.core.architectures import Architecture
from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
from repro.core.features import WorkloadFeatures
from repro.core.hardware import pai_default_hardware
from repro.core.timemodel import estimate_breakdown
from repro.trace.columnar import ColumnarTrace, write_columnar
from repro.trace.generator import (
    ClusterTraceGenerator,
    TraceConfig,
    _choice_cdf,
    _zipf_weights,
    generate_trace,
)
from repro.trace.schema import JobRecord
from repro.trace.serialization import job_to_dict


def jobs_of_type(jobs, architecture):
    """The jobs of one workload type, in trace order."""
    return [job for job in jobs if job.workload_type is architecture]


def record_digest(jobs):
    """SHA-256 over each record's sorted-key ``job_to_dict`` JSON."""
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(json.dumps(job_to_dict(job), sort_keys=True).encode())
    return digest.hexdigest()


#: Non-default marginals whose PS jobs draw both the large-model and the
#: I/O-heavy branches.
MARGINALS = TraceConfig(
    num_jobs=3000,
    seed=99,
    share_1w1g=0.40,
    share_1wng=0.15,
    share_ps_worker=0.40,
    share_allreduce=0.05,
    ps_cnodes_median=12.0,
    ps_cnodes_max=200,
    ps_large_model_fraction=0.30,
    gamma_heavy_fraction=0.50,
    beta_mean=0.55,
    beta_concentration=5.0,
    trace_days=30,
    user_groups=16,
    production_groups=4,
)


class TestPinnedStream:
    """The per-job draw order is part of every pinned number.  These
    digests were recorded before the draw loop was rewritten and must
    never be re-recorded: a change means a changed trace."""

    @pytest.mark.parametrize(
        "config, expected",
        [
            pytest.param(
                TraceConfig(),
                "61005f6f3387c68e24d2979bd04b941637e89ee68fe8acef5404f9db3bf72962",
                id="default",
            ),
            pytest.param(
                TraceConfig(num_jobs=20000, seed=1, trace_days=51),
                "cc74178119e9cc6b757195a8a1d3810c922d5e5f56fe1eca1b7e9fa9fae4aece",
                id="bench-fifo",
            ),
            pytest.param(
                MARGINALS,
                "e8845189382a59f5dbe29703f12d0b69550465a479c07b8831c8ec2df40219fd",
                id="marginals",
            ),
        ],
    )
    def test_record_digest(self, config, expected):
        assert record_digest(generate_trace(config=config)) == expected

    def test_marginals_draw_both_ps_branches(self):
        hardware = pai_default_hardware()
        ps = [
            job.features
            for job in generate_trace(config=MARGINALS)
            if job.workload_type is Architecture.PS_WORKER
        ]
        assert any(f.embedding_weight_bytes > 0 for f in ps)
        # gamma = T_d / T_w: ~0.26 for I/O-heavy jobs, ~0.004 otherwise.
        gammas = []
        for features in ps:
            breakdown = estimate_breakdown(features, hardware)
            gammas.append(breakdown.data_io / breakdown.weight_total)
        assert max(gammas) > 0.1 and min(gammas) < 0.02

    @pytest.mark.parametrize("count", [24, 5], ids=["user", "production"])
    def test_bisect_draws_what_choice_draws(self, count):
        """``bisect_right`` over ``_choice_cdf`` picks what the old
        per-job ``rng.choice(k, p=w)`` picked, from the same one double,
        on the installed numpy (the group draws of both weight
        vectors)."""
        weights = _zipf_weights(count)
        cdf = _choice_cdf(weights)
        chooser, bisector = np.random.default_rng(7), np.random.default_rng(7)
        expected = [int(chooser.choice(count, p=weights)) for _ in range(200_000)]
        actual = [bisect_right(cdf, bisector.random()) for _ in range(200_000)]
        assert actual == expected
        assert chooser.random() == bisector.random()

    def test_columnar_trace_builds_no_record(self, tmp_path, monkeypatch):
        """``trace --format columnar`` streams rows into the store: no
        ``JobRecord`` or ``WorkloadFeatures`` is built, and the store is
        the one ``write_columnar(generate_trace(...))`` writes."""

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(JobRecord, "__init__", refuse)
        monkeypatch.setattr(WorkloadFeatures, "__init__", refuse)
        streamed = tmp_path / "streamed"
        assert main(
            ["trace", "--format", "columnar", "-n", "5000", "-o", str(streamed), "-q"]
        ) == 0
        monkeypatch.undo()
        from_records = tmp_path / "records"
        write_columnar(generate_trace(num_jobs=5000), from_records)
        assert (streamed / "manifest.json").read_bytes() == (
            from_records / "manifest.json"
        ).read_bytes()
        assert (
            ColumnarTrace.open(streamed).digest()
            == ColumnarTrace.open(from_records).digest()
        )


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


#: Values each ``TraceConfig`` field rejects.  Unchecked, each would
#: skew the trace silently, or fail later in numpy or in a derived field.
BAD_VALUES = {
    "num_jobs": [0, -1, 2.5, True],
    "seed": [-1, 1.5, True],
    "share_1w1g": [-0.1, 1.5, math.nan],
    "share_1wng": [-0.1, 1.5, math.nan],
    "share_ps_worker": [-0.1, 1.5, math.nan],
    "share_allreduce": [-0.1, 1.5, math.nan],
    "ps_cnodes_median": [0.0, -1.0, math.nan, math.inf],
    "ps_cnodes_sigma": [-0.5, math.nan, math.inf],
    "ps_cnodes_max": [0, 2.5, True],
    "small_weight_median": [0.0, math.nan, math.inf],
    "small_weight_sigma": [-0.5, math.nan, math.inf],
    "ps_weight_median": [0.0, math.nan, math.inf],
    "ps_weight_sigma": [-0.5, math.nan, math.inf],
    "ps_large_model_fraction": [-0.1, 1.5, math.nan],
    "ps_large_weight_low": [0.0, math.nan, 400e9],
    "ps_large_weight_high": [0.0, math.nan, math.inf, 1e9],
    "embedding_access_low": [0.0, math.nan, 0.5],
    "embedding_access_high": [0.0, math.nan, math.inf, 1e-4],
    "ps_rho_median": [0.0, math.nan, math.inf],
    "ps_rho_sigma": [-0.5, math.nan, math.inf],
    "ps_rho_cnode_exponent": [math.nan, math.inf, -math.inf],
    "local_rho_median": [0.0, math.nan, math.inf],
    "local_rho_sigma": [-0.5, math.nan, math.inf],
    "delta_median_1w1g": [0.0, math.nan, math.inf],
    "delta_sigma_1w1g": [-0.5, math.nan, math.inf],
    "delta_median_dist": [0.0, math.nan, math.inf],
    "delta_sigma_dist": [-0.5, math.nan, math.inf],
    "gamma_light_median": [0.0, math.nan, math.inf],
    "gamma_light_sigma": [-0.5, math.nan, math.inf],
    "gamma_heavy_fraction": [-0.1, 2.0, math.nan],
    "gamma_heavy_median": [0.0, math.nan, math.inf],
    "gamma_heavy_sigma": [-0.5, math.nan, math.inf],
    "gamma_heavy_rho_scale": [0.0, math.nan, math.inf],
    "beta_mean": [0.0, 1.0, math.nan],
    "beta_concentration": [0.0, math.nan, math.inf],
    "compute_time_median": [0.0, math.nan, math.inf],
    "compute_time_sigma": [-0.5, math.nan, math.inf],
    "trace_days": [0, 2.5, True],
    "user_groups": [0, 2.5, True],
    "production_groups": [0, 2.5, True],
}


class TestConfigValidation:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TraceConfig(share_1w1g=0.9, share_1wng=0.9)

    def test_positive_job_count(self):
        with pytest.raises(ValueError):
            TraceConfig(num_jobs=0)

    def test_every_field_is_checked(self):
        assert set(BAD_VALUES) == {
            field.name for field in dataclasses.fields(TraceConfig)
        }

    @pytest.mark.parametrize("field", sorted(BAD_VALUES))
    def test_rejects_bad_values_naming_the_field(self, field):
        for value in BAD_VALUES[field]:
            with pytest.raises(ValueError, match=re.escape(field)):
                TraceConfig(**{field: value})

    def test_default_fields_pass(self):
        TraceConfig(ps_cnodes_sigma=0.0, ps_large_model_fraction=0.0)
        TraceConfig(embedding_access_low=0.01, embedding_access_high=0.01)

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
