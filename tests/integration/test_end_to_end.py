"""Cross-module integration: the full characterization pipelines."""

import pytest

from repro.core import (
    Architecture,
    PAPER_DEFAULT_EFFICIENCY,
    TABLE_VI_EFFICIENCIES,
    batch_breakdowns,
    estimate_breakdown,
    projection_speedups,
)
from repro.graphs import (
    Deployment,
    all_case_studies,
    case_study_features,
    features_for,
)
from repro.optim import apply_passes, mixed_precision_pass, xla_fusion_pass
from repro.profiling import JobMetadata, RunMetadata, extract_features
from repro.sim import simulate_step
from repro.trace import features_of_type


class TestProfileExtractEstimateLoop:
    """The Fig. 4 pipeline end to end: simulate a step, profile it,
    extract features, estimate the breakdown, compare to the measured."""

    @pytest.mark.parametrize("name", ["ResNet50", "NMT", "BERT"])
    def test_loop_closes_for_allreduce_models(self, name, case_studies, testbed):
        graph = case_studies[name]
        deployment = Deployment(
            Architecture.ALLREDUCE_LOCAL,
            8,
            embedding_sync_dense=(name == "BERT"),
        )
        measurement = simulate_step(
            graph, deployment, testbed, PAPER_DEFAULT_EFFICIENCY
        )
        metadata = RunMetadata.from_measurement(measurement)
        job = JobMetadata(
            name, deployment.architecture, num_workers=8,
            batch_size=graph.batch_size,
        )
        extracted = extract_features(metadata, job)
        estimate = estimate_breakdown(extracted, testbed)
        measured = measurement.breakdown()
        # Same efficiency on both sides: compute and memory agree tightly.
        assert estimate.compute_flops == pytest.approx(
            measured.compute_flops, rel=0.02
        )
        assert estimate.compute_memory == pytest.approx(
            measured.compute_memory, rel=0.02
        )

    def test_ps_weight_time_roundtrip(self, case_studies, testbed):
        graph = case_studies["Multi-Interests"]
        deployment = Deployment(Architecture.PS_WORKER, 8)
        measurement = simulate_step(
            graph, deployment, testbed, PAPER_DEFAULT_EFFICIENCY
        )
        metadata = RunMetadata.from_measurement(measurement)
        job = JobMetadata("mi", deployment.architecture, num_workers=8)
        extracted = extract_features(metadata, job)
        estimate = estimate_breakdown(extracted, testbed)
        measured = measurement.breakdown()
        assert estimate.weight_total == pytest.approx(
            measured.weight_total, rel=0.02
        )


class TestTraceToConclusions:
    """From synthetic trace to the paper's headline conclusions."""

    def test_communication_is_the_bottleneck(self, trace, hardware):
        analyzed = batch_breakdowns([job.features for job in trace], hardware)
        fractions = analyzed.average_fractions(cnode_level=True)
        assert fractions["weight"] > max(
            fractions["compute_bound"], fractions["memory_bound"]
        )

    def test_projection_pipeline_over_trace(self, trace, hardware):
        ps = features_of_type(list(trace), Architecture.PS_WORKER)[:500]
        results = [
            projection_speedups(f, Architecture.ALLREDUCE_LOCAL, hardware)
            for f in ps
        ]
        sped_up = sum(1 for r in results if r.sped_up) / len(results)
        assert 0.5 < sped_up < 0.75


class TestOptimizationPipeline:
    def test_mp_xla_compose_on_real_model(self, case_studies, testbed):
        graph = case_studies["BERT"]
        deployment = Deployment(
            Architecture.ALLREDUCE_LOCAL, 8, embedding_sync_dense=True
        )
        eff = TABLE_VI_EFFICIENCIES["BERT"]
        base = simulate_step(graph, deployment, testbed, eff)
        optimized = simulate_step(
            apply_passes(graph, [mixed_precision_pass, xla_fusion_pass]),
            deployment,
            testbed,
            eff,
        )
        speedup = base.serial_total / optimized.serial_total
        assert 1.8 <= speedup <= 3.0  # paper: 2x


class TestCaseStudyFeatureParity:
    def test_features_match_direct_derivation(self, case_studies, deployments):
        derived = case_study_features()
        for name, graph in case_studies.items():
            direct = features_for(graph, deployments[name])
            assert derived[name] == direct

    def test_all_six_models_estimable_on_testbed(self, testbed):
        for name, features in case_study_features().items():
            breakdown = estimate_breakdown(features, testbed)
            assert breakdown.total > 0, name


class TestSimulatorAgreesWithModelAtUniformEfficiency:
    """With identical 70% efficiencies and no overhead, the simulator
    must converge to the analytical model -- the strongest cross-check
    between the two implementations."""

    @pytest.mark.parametrize(
        "name,arch,n",
        [
            ("ResNet50", Architecture.SINGLE, 1),
            ("ResNet50", Architecture.PS_WORKER, 4),
            ("Speech", Architecture.SINGLE, 1),
        ],
    )
    def test_agreement(self, name, arch, n, case_studies, testbed):
        from repro.sim.executor import SimulationOptions

        graph = case_studies[name]
        deployment = Deployment(arch, n)
        measurement = simulate_step(
            graph,
            deployment,
            testbed,
            PAPER_DEFAULT_EFFICIENCY,
            options=SimulationOptions(launch_overhead=0.0),
        )
        estimate = estimate_breakdown(features_for(graph, deployment), testbed)
        assert measurement.breakdown().total == pytest.approx(
            estimate.total, rel=0.05
        )
