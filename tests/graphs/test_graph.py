"""ModelGraph aggregation and transformations."""

import pytest

from repro.graphs.graph import GraphTotals, ModelGraph
from repro.graphs.ops import (
    backward_ops,
    elementwise_op,
    embedding_lookup_op,
    matmul_op,
)
from repro.graphs.optimizers import ADAM, MOMENTUM, SGD


def tiny_graph(optimizer=MOMENTUM):
    forward = (
        matmul_op("fc1", m=1, k=100, n=200, batch=32),
        elementwise_op("relu", 32 * 200),
        embedding_lookup_op("emb", vocab_size=1000, embedding_dim=16,
                            lookups=32 * 4),
    )
    return ModelGraph(
        name="tiny",
        domain="test",
        forward=forward,
        batch_size=32,
        input_bytes_per_sample=400.0,
        embedding_access_bytes=2.0 * 32 * 4 * 16 * 4,
        optimizer=optimizer,
    )


class TestGraphTotals:
    def test_of_splits_by_kind(self):
        graph = tiny_graph()
        totals = GraphTotals.of(graph.forward)
        assert totals.op_count == 3
        assert totals.compute_bound_flops == graph.forward[0].flops
        assert totals.memory_bound_access_bytes == (
            graph.forward[1].memory_access_bytes
            + graph.forward[2].memory_access_bytes
        )


class TestParameters:
    def test_dense_vs_embedding_split(self):
        graph = tiny_graph()
        assert graph.dense_trainable_bytes == graph.forward[0].param_bytes
        assert graph.embedding_trainable_bytes == 1000 * 16 * 4

    def test_optimizer_multiplier(self):
        momentum = tiny_graph(MOMENTUM)
        sgd = tiny_graph(SGD)
        adam = tiny_graph(ADAM)
        assert momentum.dense_weight_bytes == 2 * sgd.dense_weight_bytes
        assert adam.dense_weight_bytes == 3 * sgd.dense_weight_bytes

    def test_weight_bytes_sums(self):
        graph = tiny_graph()
        assert graph.weight_bytes == (
            graph.dense_weight_bytes + graph.embedding_weight_bytes
        )

    def test_extra_dense_params(self):
        import dataclasses

        graph = dataclasses.replace(tiny_graph(), extra_dense_param_bytes=1e6)
        assert graph.dense_trainable_bytes == pytest.approx(
            tiny_graph().dense_trainable_bytes + 1e6
        )


class TestTrainingStep:
    def test_training_step_appends_backward(self):
        graph = tiny_graph()
        assert len(graph.training_step) == 2 * len(graph.forward)

    def test_flop_count_is_3x_forward(self):
        graph = tiny_graph()
        assert graph.flop_count == pytest.approx(
            3 * graph.forward_totals.compute_bound_flops
        )

    def test_input_bytes(self):
        assert tiny_graph().input_bytes == 32 * 400.0

    def test_op_lists_are_built_once(self):
        # The simulator reads training_step once per replica.
        graph = tiny_graph()
        step = graph.training_step
        assert graph.training_step is step
        assert graph.backward is graph.backward
        assert step == graph.forward + tuple(backward_ops(list(graph.forward)))
        assert step[len(graph.forward):] == graph.backward

    def test_copies_build_their_own_op_lists(self):
        graph = tiny_graph()
        step = graph.training_step
        for copy in (
            graph.with_batch_size(64),
            graph.with_batch_size(32, scale_ops=False),
            graph.with_forward(graph.forward[:1]),
            graph.with_forward(graph.forward),
        ):
            assert copy.training_step is not step
            assert copy.backward is not graph.backward
            assert copy.training_step == copy.forward + tuple(
                backward_ops(list(copy.forward))
            )
        assert graph.training_step is step

    def test_cached_op_lists_leave_equality_and_hash_alone(self):
        graph = tiny_graph()
        fresh = tiny_graph()
        graph.training_step
        assert graph == fresh
        assert hash(graph) == hash(fresh)
        assert repr(graph) == repr(fresh)


class TestTransformations:
    def test_with_forward_replaces_ops(self):
        graph = tiny_graph()
        new = graph.with_forward(graph.forward[:1])
        assert len(new.forward) == 1
        assert len(graph.forward) == 3

    def test_with_batch_size_scales_linearly(self):
        graph = tiny_graph()
        doubled = graph.with_batch_size(64)
        assert doubled.flop_count == pytest.approx(2 * graph.flop_count)
        assert doubled.memory_access_bytes == pytest.approx(
            2 * graph.memory_access_bytes
        )
        assert doubled.input_bytes == pytest.approx(2 * graph.input_bytes)
        assert doubled.embedding_access_bytes == pytest.approx(
            2 * graph.embedding_access_bytes
        )

    def test_with_batch_size_keeps_params(self):
        graph = tiny_graph()
        assert graph.with_batch_size(64).weight_bytes == graph.weight_bytes

    def test_with_batch_size_rejects_zero(self):
        with pytest.raises(ValueError):
            tiny_graph().with_batch_size(0)

    def test_summary_keys(self):
        summary = tiny_graph().summary()
        assert summary["name"] == "tiny"
        assert summary["op_count"] == 3


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph(
                name="empty",
                domain="test",
                forward=(),
                batch_size=1,
                input_bytes_per_sample=0.0,
            )

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph(
                name="bad",
                domain="test",
                forward=(matmul_op("m", 1, 1, 1),),
                batch_size=1,
                input_bytes_per_sample=-1.0,
            )
