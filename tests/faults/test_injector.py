"""Plan -> hook compilation: windows, composition, validation."""

import pytest

from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    fleet_target,
    job_target,
    link_target,
    ps_target,
    replica_target,
    sched_faults_for,
    step_faults_at,
)
from repro.faults.injector import STORM_TICKS
from repro.sched import SchedFaults
from repro.sim import StepFaults


def plan_of(*faults):
    return FaultPlan(seed=1, faults=tuple(faults))


class TestStepFaultsAt:
    def test_inactive_outside_window(self):
        plan = plan_of(
            FaultSpec(FaultKind.STRAGGLER, replica_target(1), 10.0, 5.0, 2.0)
        )
        assert step_faults_at(plan, 9.0, 4) == StepFaults()
        assert step_faults_at(plan, 10.0, 4) != StepFaults()
        assert step_faults_at(plan, 15.0, 4) == StepFaults()

    def test_straggler_compiles_to_compute_multiplier(self):
        plan = plan_of(
            FaultSpec(FaultKind.STRAGGLER, replica_target(2), 0.0, 5.0, 2.5)
        )
        hooks = step_faults_at(plan, 1.0, 4)
        assert hooks.compute_multiplier(2) == 2.5
        assert hooks.compute_multiplier(0) == 1.0

    def test_overlapping_stragglers_take_the_worst(self):
        plan = plan_of(
            FaultSpec(FaultKind.STRAGGLER, replica_target(0), 0.0, 9.0, 1.8),
            FaultSpec(FaultKind.STRAGGLER, replica_target(0), 0.0, 9.0, 2.6),
        )
        assert step_faults_at(plan, 1.0, 4).compute_multiplier(0) == 2.6

    def test_link_degradation_compiles_to_bandwidth_fraction(self):
        plan = plan_of(
            FaultSpec(
                FaultKind.LINK_DEGRADATION, link_target(1, "nic"), 0.0, 5.0, 0.4
            )
        )
        assert step_faults_at(plan, 0.0, 4).link_bandwidth == {(1, "nic"): 0.4}

    def test_overlapping_links_take_the_worst(self):
        plan = plan_of(
            FaultSpec(
                FaultKind.LINK_DEGRADATION, link_target(0, "pcie"), 0.0, 9.0, 0.6
            ),
            FaultSpec(
                FaultKind.LINK_DEGRADATION, link_target(0, "pcie"), 0.0, 9.0, 0.3
            ),
        )
        assert step_faults_at(plan, 0.0, 4).link_bandwidth == {
            (0, "pcie"): 0.3
        }

    def test_hotspot_compiles_to_weight_vector(self):
        plan = plan_of(
            FaultSpec(FaultKind.PS_HOTSPOT, ps_target(2), 0.0, 5.0, 4.0)
        )
        assert step_faults_at(plan, 0.0, 4).ps_shard_weights == (
            1.0,
            1.0,
            4.0,
            1.0,
        )

    def test_hotspot_outside_fleet_rejected(self):
        plan = plan_of(
            FaultSpec(FaultKind.PS_HOTSPOT, ps_target(7), 0.0, 5.0, 4.0)
        )
        with pytest.raises(ValueError):
            step_faults_at(plan, 0.0, 4)

    def test_bad_link_kind_rejected(self):
        plan = plan_of(
            FaultSpec(
                FaultKind.LINK_DEGRADATION, "link:0:carrier-pigeon",
                0.0, 5.0, 0.5,
            )
        )
        with pytest.raises(ValueError):
            step_faults_at(plan, 0.0, 4)

    def test_sched_kinds_are_ignored(self):
        plan = plan_of(
            FaultSpec(FaultKind.WORKER_CRASH, job_target("*"), 0.0, 2.0, 2.0)
        )
        assert step_faults_at(plan, 0.0, 4) == StepFaults()


class TestSchedFaultsFor:
    def test_crash_spec(self):
        plan = plan_of(
            FaultSpec(FaultKind.WORKER_CRASH, job_target(9), 12.0, 3.0, 3.0)
        )
        faults = sched_faults_for(plan)
        assert len(faults.crashes) == 1
        crash = faults.crashes[0]
        assert crash.hour == 12.0
        assert crash.job_id == 9
        assert crash.backoff_hours == 3.0

    def test_wildcard_crash_has_no_preferred_victim(self):
        plan = plan_of(
            FaultSpec(FaultKind.WORKER_CRASH, job_target("*"), 12.0, 3.0, 3.0)
        )
        assert sched_faults_for(plan).crashes[0].job_id is None

    def test_storm_spec_splits_window_into_waves(self):
        plan = plan_of(
            FaultSpec(FaultKind.PREEMPTION_STORM, fleet_target(), 6.0, 3.0, 2.0)
        )
        faults = sched_faults_for(plan)
        assert len(faults.storms) == 1
        storm = faults.storms[0]
        assert storm.ticks == STORM_TICKS
        assert storm.victims_per_tick == 2
        assert storm.tick_hours() == (6.0, 7.0, 8.0)

    def test_sim_kinds_are_ignored(self):
        plan = plan_of(
            FaultSpec(FaultKind.STRAGGLER, replica_target(0), 0.0, 5.0, 2.0)
        )
        assert sched_faults_for(plan) == SchedFaults()
