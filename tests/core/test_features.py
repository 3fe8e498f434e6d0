"""Workload feature records and deployment transforms."""

import math

import pytest

from repro.core.architectures import Architecture
from repro.core.features import WorkloadFeatures


def make_features(**overrides):
    defaults = dict(
        name="job",
        architecture=Architecture.PS_WORKER,
        num_cnodes=16,
        batch_size=64,
        flop_count=1e12,
        memory_access_bytes=10e9,
        input_bytes=30e6,
        weight_traffic_bytes=200e6,
        dense_weight_bytes=200e6,
    )
    defaults.update(overrides)
    return WorkloadFeatures(**defaults)


NON_FINITE = [math.nan, math.inf, -math.inf]

#: Every numeric field of the record, the integer ones included.
NUMERIC_FIELDS = [
    "num_cnodes",
    "batch_size",
    "flop_count",
    "memory_access_bytes",
    "input_bytes",
    "weight_traffic_bytes",
    "dense_weight_bytes",
    "embedding_weight_bytes",
    "embedding_traffic_bytes",
]


class TestValidation:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_rejects_non_finite(self, field, value):
        # NaN compares false with everything, so a bare ``< 0`` range
        # check lets it through.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_features(**{field: value})

    def test_valid(self):
        features = make_features()
        assert features.num_cnodes == 16

    def test_rejects_zero_cnodes(self):
        with pytest.raises(ValueError):
            make_features(num_cnodes=0)

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            make_features(batch_size=0)

    @pytest.mark.parametrize(
        "field",
        [
            "flop_count",
            "memory_access_bytes",
            "input_bytes",
            "weight_traffic_bytes",
            "dense_weight_bytes",
            "embedding_weight_bytes",
        ],
    )
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError):
            make_features(**{field: -1.0})

    def test_1w1g_must_have_one_cnode(self):
        with pytest.raises(ValueError):
            make_features(
                architecture=Architecture.SINGLE,
                num_cnodes=2,
                weight_traffic_bytes=0.0,
            )

    def test_1w1g_must_not_move_weights(self):
        with pytest.raises(ValueError):
            make_features(
                architecture=Architecture.SINGLE,
                num_cnodes=1,
                weight_traffic_bytes=1.0,
            )

    def test_local_architectures_capped_at_8(self):
        with pytest.raises(ValueError):
            make_features(
                architecture=Architecture.ALLREDUCE_LOCAL, num_cnodes=9
            )

    def test_embedding_traffic_bounded_by_total(self):
        with pytest.raises(ValueError):
            make_features(
                weight_traffic_bytes=10.0, embedding_traffic_bytes=11.0
            )


class TestDerived:
    def test_weight_bytes_sums_parts(self):
        features = make_features(
            dense_weight_bytes=1e9, embedding_weight_bytes=54e9
        )
        assert features.weight_bytes == 55e9

    def test_dense_traffic(self):
        features = make_features(
            weight_traffic_bytes=3e9, embedding_traffic_bytes=2.7e9
        )
        assert features.dense_traffic_bytes == pytest.approx(0.3e9)


class TestLocalCNodesPerServer:
    def test_ps_worker_one_per_server(self):
        assert make_features().local_cnodes_per_server == 1

    def test_local_packs_all(self):
        features = make_features(
            architecture=Architecture.ALLREDUCE_LOCAL, num_cnodes=6
        )
        assert features.local_cnodes_per_server == 6

    def test_cluster_allreduce_packs_8(self):
        features = make_features(
            architecture=Architecture.ALLREDUCE_CLUSTER, num_cnodes=32
        )
        assert features.local_cnodes_per_server == 8

    def test_single(self):
        features = make_features(
            architecture=Architecture.SINGLE,
            num_cnodes=1,
            weight_traffic_bytes=0.0,
        )
        assert features.local_cnodes_per_server == 1


class TestWithArchitecture:
    def test_projection_preserves_requirements(self):
        original = make_features()
        projected = original.with_architecture(
            Architecture.ALLREDUCE_LOCAL, num_cnodes=8
        )
        assert projected.flop_count == original.flop_count
        assert projected.weight_traffic_bytes == original.weight_traffic_bytes
        assert projected.input_bytes == original.input_bytes
        assert projected.num_cnodes == 8

    def test_keeps_cnodes_by_default(self):
        projected = make_features().with_architecture(
            Architecture.ALLREDUCE_CLUSTER
        )
        assert projected.num_cnodes == 16

    def test_to_single_clears_traffic(self):
        single = make_features(num_cnodes=1).with_architecture(
            Architecture.SINGLE
        )
        assert single.weight_traffic_bytes == 0.0

    def test_original_is_untouched(self):
        original = make_features()
        original.with_architecture(Architecture.ALLREDUCE_LOCAL, num_cnodes=4)
        assert original.architecture is Architecture.PS_WORKER
