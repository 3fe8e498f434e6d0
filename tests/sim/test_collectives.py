"""Collective cost models: ring and mesh."""

import pytest

from repro.sim.collectives import (
    allgatherv_time,
    reduce_scatter_time,
    ring_allreduce_time,
)


class TestRingAllreduce:
    def test_single_node_is_free(self):
        assert ring_allreduce_time(1e9, 1, 1e9).seconds == 0.0

    def test_per_node_volume(self):
        cost = ring_allreduce_time(8e9, 8, 1e9, efficiency=1.0)
        assert cost.volume_per_node == pytest.approx(2 * 7 / 8 * 8e9)
        assert cost.seconds == pytest.approx(14.0)

    def test_latency_scales_with_ring_steps(self):
        cost = ring_allreduce_time(0.0, 4, 1e9, latency=0.1)
        assert cost.seconds == pytest.approx(2 * 3 * 0.1)

    def test_volume_approaches_2s_for_large_rings(self):
        cost = ring_allreduce_time(1e9, 1000, 1e9, efficiency=1.0)
        assert cost.volume_per_node == pytest.approx(2e9, rel=0.01)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(1.0, 0, 1e9)


class TestAllGatherv:
    def test_ring_topology(self):
        cost = allgatherv_time(1e9, 8, 1e9, efficiency=1.0, topology="ring")
        assert cost.volume_per_node == pytest.approx(7e9)

    def test_mesh_topology_is_one_slice(self):
        # The NVLink hybrid mesh runs pairwise exchanges concurrently.
        cost = allgatherv_time(1e9, 8, 1e9, efficiency=1.0, topology="mesh")
        assert cost.volume_per_node == pytest.approx(1e9)
        assert cost.seconds == pytest.approx(1.0)

    def test_mesh_beats_ring(self):
        ring = allgatherv_time(1e9, 8, 1e9, topology="ring")
        mesh = allgatherv_time(1e9, 8, 1e9, topology="mesh")
        assert mesh.seconds < ring.seconds

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            allgatherv_time(1e9, 8, 1e9, topology="torus")

    def test_single_node(self):
        assert allgatherv_time(1e9, 1, 1e9).seconds == 0.0


class TestReduceScatter:
    def test_ring_volume(self):
        cost = reduce_scatter_time(8e9, 8, 1e9, efficiency=1.0)
        assert cost.volume_per_node == pytest.approx(7e9)

    def test_mesh_volume(self):
        cost = reduce_scatter_time(
            8e9, 8, 1e9, efficiency=1.0, topology="mesh"
        )
        assert cost.volume_per_node == pytest.approx(1e9)

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            reduce_scatter_time(1e9, 4, 1e9, topology="star")
