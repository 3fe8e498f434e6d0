"""Executor extensions: straggler jitter and memory validation."""

import numpy as np
import pytest

from repro.core.architectures import Architecture
from repro.graphs import Deployment, build_gcn, build_multi_interests, build_resnet50
from repro.sim.executor import SimulationOptions, simulate_step


class TestJitter:
    def test_zero_jitter_is_deterministic(self, testbed):
        graph = build_resnet50()
        deployment = Deployment(Architecture.ALLREDUCE_LOCAL, 4)
        first = simulate_step(graph, deployment, testbed)
        second = simulate_step(graph, deployment, testbed)
        assert first.step_time == second.step_time

    def test_jitter_slows_the_barrier(self, testbed):
        graph = build_resnet50()
        deployment = Deployment(Architecture.ALLREDUCE_LOCAL, 8)
        base = simulate_step(graph, deployment, testbed)
        jittered = simulate_step(
            graph,
            deployment,
            testbed,
            options=SimulationOptions(jitter_sigma=0.15),
        )
        assert jittered.step_time > base.step_time

    def test_jitter_reproducible_per_seed(self, testbed):
        graph = build_resnet50()
        deployment = Deployment(Architecture.ALLREDUCE_LOCAL, 8)
        options = SimulationOptions(jitter_sigma=0.15, jitter_seed=5)
        first = simulate_step(graph, deployment, testbed, options=options)
        second = simulate_step(graph, deployment, testbed, options=options)
        assert first.step_time == second.step_time

    def test_des_jitter_matches_analytical_scale(self, testbed):
        """The DES barrier inflation should be in the same ballpark as
        the analytical expected-max factor."""
        graph = build_resnet50()
        deployment = Deployment(Architecture.ALLREDUCE_LOCAL, 8)
        base = simulate_step(graph, deployment, testbed)
        inflations = []
        for seed in range(8):
            jittered = simulate_step(
                graph,
                deployment,
                testbed,
                options=SimulationOptions(jitter_sigma=0.1, jitter_seed=seed),
            )
            inflations.append(jittered.step_time / base.step_time)
        observed = sum(inflations) / len(inflations)
        # E[max of 8 median-1 log-normals, sigma 0.1], by Monte Carlo.
        analytical = float(
            np.random.default_rng(1234)
            .lognormal(0.0, 0.1, (4000, 8))
            .max(axis=1)
            .mean()
        )
        # Only part of the step jitters, so observed <= analytical; both
        # must exceed 1 and agree within a loose band.
        assert 1.0 < observed <= analytical * 1.05


class TestMemoryValidation:
    def test_replica_mode_rejects_oversized_models(self, testbed):
        gcn = build_gcn()  # 54 GB of embeddings
        with pytest.raises(ValueError, match="GB per GPU"):
            simulate_step(
                gcn, Deployment(Architecture.ALLREDUCE_LOCAL, 8), testbed
            )

    def test_pearl_accepts_when_sharded(self, testbed):
        gcn = build_gcn()
        measurement = simulate_step(
            gcn, Deployment(Architecture.PEARL, 8), testbed
        )
        assert measurement.step_time > 0

    def test_ps_hosts_huge_embeddings(self, testbed):
        # Multi-Interests: 239 GB at rest, but the table lives on the
        # parameter servers' host memory.
        graph = build_multi_interests()
        measurement = simulate_step(
            graph, Deployment(Architecture.PS_WORKER, 8), testbed
        )
        assert measurement.step_time > 0

    def test_check_can_be_disabled(self, testbed):
        gcn = build_gcn()
        measurement = simulate_step(
            gcn,
            Deployment(Architecture.ALLREDUCE_LOCAL, 8),
            testbed,
            options=SimulationOptions(check_memory=False),
        )
        assert measurement.step_time > 0
