"""Inference characterization (the paper's Sec. VIII future work)."""

import pytest

from repro.inference import (
    InferenceFeatures,
    batch_sweep,
    estimate_latency,
    inference_features_for,
    max_batch_within_slo,
)


@pytest.fixture(scope="module")
def resnet_serving(case_studies):
    return inference_features_for(case_studies["ResNet50"], batch_size=1)


class TestDerivation:
    def test_forward_only(self, case_studies):
        graph = case_studies["ResNet50"]
        serving = inference_features_for(graph, batch_size=graph.batch_size)
        # Training FLOPs are ~3x forward (fwd + 2x bwd).
        assert serving.flop_count == pytest.approx(graph.flop_count / 3)

    def test_batch_one_scaling(self, case_studies):
        graph = case_studies["ResNet50"]
        serving = inference_features_for(graph, batch_size=1)
        assert serving.input_bytes == pytest.approx(
            graph.input_bytes / graph.batch_size
        )

    def test_no_optimizer_slots_at_serving_time(self, case_studies):
        graph = case_studies["ResNet50"]
        serving = inference_features_for(graph)
        # Training at-rest includes the momentum slot; serving does not.
        assert serving.resident_weight_bytes == pytest.approx(
            graph.dense_weight_bytes / 2
        )

    def test_with_batch_size_rescales(self, resnet_serving):
        batched = resnet_serving.with_batch_size(32)
        assert batched.flop_count == pytest.approx(32 * resnet_serving.flop_count)
        assert batched.resident_weight_bytes == (
            resnet_serving.resident_weight_bytes
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceFeatures("x", 0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            InferenceFeatures("x", 1, -1.0, 1.0, 1.0, 1.0, 1.0)


class TestLatency:
    def test_components_positive(self, resnet_serving, testbed):
        breakdown = estimate_latency(resnet_serving, testbed)
        assert breakdown.input_io > 0
        assert breakdown.compute_flops > 0
        assert breakdown.total > 0

    def test_fractions_sum_to_one(self, resnet_serving, testbed):
        fractions = estimate_latency(resnet_serving, testbed).fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_resnet_batch1_latency_order_of_magnitude(self, resnet_serving, testbed):
        # ~8.1 GFLOPs forward on a 15 TFLOPs V100 at 70%: few ms.
        latency = estimate_latency(resnet_serving, testbed).total
        assert 0.5e-3 < latency < 10e-3

    def test_model_must_fit_gpu(self, case_studies, testbed):
        serving = inference_features_for(case_studies["GCN"])
        # 27 GB of embeddings alone... plus table: exceeds the 32 GB V100.
        if serving.resident_weight_bytes > testbed.gpu.memory_capacity:
            with pytest.raises(ValueError):
                estimate_latency(serving, testbed)

    def test_bottleneck_label(self, resnet_serving, testbed):
        assert estimate_latency(resnet_serving, testbed).bottleneck in (
            "input_io",
            "compute_bound",
            "memory_bound",
            "output_io",
        )


class TestThroughputAndBatching:
    def test_throughput_grows_with_batch(self, resnet_serving, testbed):
        # Per-request work is linear here, so throughput is flat-to-equal;
        # with fixed per-execution I/O it would grow. Check monotone
        # non-decreasing of batch/latency.
        def throughput(features):
            return features.batch_size / estimate_latency(features, testbed).total

        small = throughput(resnet_serving)
        large = throughput(resnet_serving.with_batch_size(64))
        assert large >= small * 0.99

    def test_slo_search(self, resnet_serving, testbed):
        tight = max_batch_within_slo(resnet_serving, testbed, latency_slo=5e-3)
        loose = max_batch_within_slo(resnet_serving, testbed, latency_slo=0.5)
        assert tight is not None
        assert loose >= tight

    def test_slo_impossible(self, resnet_serving, testbed):
        assert max_batch_within_slo(
            resnet_serving, testbed, latency_slo=1e-9
        ) is None

    def test_slo_validation(self, resnet_serving, testbed):
        with pytest.raises(ValueError):
            max_batch_within_slo(resnet_serving, testbed, latency_slo=0.0)

    def test_batch_sweep_rows(self, resnet_serving, testbed):
        rows = batch_sweep(resnet_serving, testbed, batches=[1, 8, 64])
        assert [row["batch"] for row in rows] == [1, 8, 64]
        assert all(row["latency_s"] > 0 for row in rows)
        latencies = [row["latency_s"] for row in rows]
        assert latencies == sorted(latencies)


class TestCharacterizationShape:
    def test_giant_embedding_models_cannot_serve_on_one_gpu(
        self, case_studies, testbed
    ):
        # Multi-Interests carries ~120 GB of trainable embeddings: single-
        # GPU serving is impossible, mirroring the training-side story.
        serving = inference_features_for(
            case_studies["Multi-Interests"], batch_size=64
        )
        with pytest.raises(ValueError):
            estimate_latency(serving, testbed)

    def test_transformers_more_memory_heavy_than_cv(self, case_studies, testbed):
        bert = estimate_latency(
            inference_features_for(case_studies["BERT"], batch_size=8), testbed
        )
        resnet = estimate_latency(
            inference_features_for(case_studies["ResNet50"], batch_size=8),
            testbed,
        )
        assert (
            bert.fractions()["memory_bound"]
            > resnet.fractions()["memory_bound"]
        )

    def test_cv_models_are_compute_bound_at_serving(self, case_studies, testbed):
        serving = inference_features_for(case_studies["ResNet50"], batch_size=64)
        breakdown = estimate_latency(serving, testbed)
        assert breakdown.bottleneck == "compute_bound"
