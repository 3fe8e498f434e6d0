"""Regression tests for each fault kind's symptom signature.

The separability table in :mod:`repro.faults.localize` is what makes
telemetry-only RCA possible; these tests pin each row of it, first at
the executor/engine level (raw measurements) and then through the full
detect -> localize pipeline on scenario telemetry.
"""

import pytest

from repro.faults import FaultKind, canonical_events, capture, detect
from repro.faults.scenarios import (
    _run_sched_scenario,
    _run_sim_scenario,
    scenario_specs,
)
from repro.sched import (
    CrashSpec,
    FifoPolicy,
    Fleet,
    SchedFaults,
    StormSpec,
    run_schedule,
)
from repro.sim import SimulationOptions, StepFaults, simulate_step

from faults_helpers import make_job


def of_kind(sink, kind):
    """The events of one kind that a ``MemorySink`` collected, in order."""
    return [event for event in sink.events if event.get("kind") == kind]


OPTIONS = SimulationOptions(jitter_sigma=0.0)


def run(graph, deployment, faults=None):
    return simulate_step(graph, deployment, options=OPTIONS, faults=faults)


class TestSimSignatures:
    def test_healthy_run_matches_no_faults(self, probe_graph, probe_deployment):
        baseline = run(probe_graph, probe_deployment)
        explicit = run(probe_graph, probe_deployment, StepFaults())
        assert baseline.replica_step_s == explicit.replica_step_s
        assert baseline.replica_compute_s == explicit.replica_compute_s

    def test_straggler_inflates_one_replica_compute_and_step(
        self, probe_graph, probe_deployment
    ):
        healthy = run(probe_graph, probe_deployment)
        faulted = run(
            probe_graph,
            probe_deployment,
            StepFaults(compute_multipliers={1: 2.5}),
        )
        # The victim's kernels slow down, so its compute and step inflate
        # (launch overhead is unscaled, so observed < 2.5x).
        assert (
            faulted.replica_compute_s[1] > 1.4 * healthy.replica_compute_s[1]
        )
        assert faulted.replica_step_s[1] > healthy.replica_step_s[1]
        for replica in (0, 2, 3):
            assert faulted.replica_compute_s[replica] == pytest.approx(
                healthy.replica_compute_s[replica]
            )

    def test_link_degradation_inflates_step_with_flat_compute(
        self, probe_graph, probe_deployment
    ):
        healthy = run(probe_graph, probe_deployment)
        faulted = run(
            probe_graph,
            probe_deployment,
            StepFaults(link_bandwidth={(0, "nic"): 0.3}),
        )
        assert faulted.replica_step_s[0] > 1.1 * healthy.replica_step_s[0]
        for replica in range(4):
            assert faulted.replica_compute_s[replica] == pytest.approx(
                healthy.replica_compute_s[replica]
            )

    def test_hotspot_inflates_every_replica_step_with_flat_compute(
        self, probe_graph, probe_deployment
    ):
        healthy = run(probe_graph, probe_deployment)
        faulted = run(
            probe_graph,
            probe_deployment,
            StepFaults(ps_shard_weights=(4.0, 1.0, 1.0, 1.0)),
        )
        for replica in range(4):
            assert (
                faulted.replica_step_s[replica]
                > 1.2 * healthy.replica_step_s[replica]
            )
            assert faulted.replica_compute_s[replica] == pytest.approx(
                healthy.replica_compute_s[replica]
            )

    def test_injection_is_deterministic(self, probe_graph, probe_deployment):
        faults = StepFaults(
            compute_multipliers={2: 2.0}, link_bandwidth={(1, "pcie"): 0.5}
        )
        first = run(probe_graph, probe_deployment, faults)
        second = run(probe_graph, probe_deployment, faults)
        assert first.replica_step_s == second.replica_step_s
        assert first.replica_compute_s == second.replica_compute_s


class TestSchedSignatures:
    def _jobs(self, count=6):
        return [make_job(i, num_cnodes=2) for i in range(count)]

    def _durations(self, count=6, hours=10.0):
        return {i: hours for i in range(count)}

    def test_crash_emits_job_failed_and_counts_retry(self):
        with capture() as sink:
            outcome = run_schedule(
                self._jobs(),
                Fleet(num_servers=4),
                FifoPolicy(),
                durations=self._durations(),
                faults=SchedFaults(crashes=(CrashSpec(hour=2.0),)),
            )
        failures = of_kind(sink, "sched.job_failed")
        assert len(failures) == 1
        assert sum(o.retries for o in outcome.outcomes) == 1
        # Work is conserved: every job still completes.
        assert len(outcome.outcomes) == 6
        assert all(o.end_hour is not None for o in outcome.outcomes)

    def test_storm_emits_preemption_burst(self):
        storm = StormSpec(
            start_hour=1.0, ticks=3, interval_hours=1.0, victims_per_tick=2
        )
        with capture() as sink:
            outcome = run_schedule(
                self._jobs(),
                Fleet(num_servers=4),
                FifoPolicy(),
                durations=self._durations(),
                faults=SchedFaults(storms=(storm,)),
            )
        preemptions = of_kind(sink, "sched.preempted")
        assert len(preemptions) >= 3
        assert len({e["job_id"] for e in preemptions}) >= 2
        assert all(o.end_hour is not None for o in outcome.outcomes)

    def test_healthy_fifo_run_is_symptom_free(self):
        with capture() as sink:
            run_schedule(
                self._jobs(),
                Fleet(num_servers=4),
                FifoPolicy(),
                durations=self._durations(),
            )
        assert not of_kind(sink, "sched.job_failed")
        assert not of_kind(sink, "sched.preempted")

    def test_injection_is_deterministic(self):
        def replay():
            return run_schedule(
                self._jobs(),
                Fleet(num_servers=4),
                FifoPolicy(),
                durations=self._durations(),
                faults=SchedFaults(
                    crashes=(CrashSpec(hour=2.0),),
                    storms=(StormSpec(start_hour=5.0),),
                ),
            )

        first, second = replay(), replay()
        assert [o.end_hour for o in first.outcomes] == [
            o.end_hour for o in second.outcomes
        ]
        assert [o.retries for o in first.outcomes] == [
            o.retries for o in second.outcomes
        ]


def _symptoms(spec):
    with capture() as sink:
        if spec.is_sched:
            _run_sched_scenario(spec)
        else:
            _run_sim_scenario(spec)
    anomalies = detect(canonical_events(sink.events))
    return {a.symptom for a in anomalies}, anomalies


class TestPipelineSignatures:
    """Scenario telemetry shows exactly the expected symptom families.

    ``scenario_specs`` cycles kinds in a fixed order, so ids 0..4 give
    one scenario of every kind.
    """

    @pytest.fixture(scope="class")
    def specs(self):
        specs = scenario_specs(5)
        assert [s.fault.kind for s in specs] == [
            FaultKind.STRAGGLER,
            FaultKind.LINK_DEGRADATION,
            FaultKind.WORKER_CRASH,
            FaultKind.PS_HOTSPOT,
            FaultKind.PREEMPTION_STORM,
        ]
        return specs

    def test_straggler_signature(self, specs):
        symptoms, anomalies = _symptoms(specs[0])
        assert "compute_inflation" in symptoms
        assert "step_inflation" in symptoms
        assert "link_rate_drop" not in symptoms
        assert "shard_skew" not in symptoms
        targets = {
            a.target for a in anomalies if a.symptom == "compute_inflation"
        }
        assert targets == {specs[0].fault.target}

    def test_link_signature(self, specs):
        symptoms, anomalies = _symptoms(specs[1])
        assert "link_rate_drop" in symptoms
        assert "step_inflation" in symptoms
        assert "compute_inflation" not in symptoms
        assert "shard_skew" not in symptoms
        targets = {
            a.target for a in anomalies if a.symptom == "link_rate_drop"
        }
        assert specs[1].fault.target in targets

    def test_crash_signature(self, specs):
        symptoms, _ = _symptoms(specs[2])
        assert "job_failure" in symptoms
        assert "preemption_burst" not in symptoms

    def test_hotspot_signature(self, specs):
        symptoms, anomalies = _symptoms(specs[3])
        assert "shard_skew" in symptoms
        assert "compute_inflation" not in symptoms
        assert "link_rate_drop" not in symptoms
        # The synchronization tier is sick, so the slowdown is symmetric:
        # step inflation is either fleet-wide (severe hotspot) or below
        # the changepoint threshold everywhere -- never one replica.
        inflated = {
            a.target for a in anomalies if a.symptom == "step_inflation"
        }
        assert len(inflated) in (0, 4)

    def test_storm_signature(self, specs):
        symptoms, _ = _symptoms(specs[4])
        assert "preemption_burst" in symptoms
        assert "job_failure" not in symptoms
