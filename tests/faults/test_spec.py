"""Typed fault specifications: validation, windows, plan partition."""

import math

import pytest

from repro.faults import (
    SCHED_KINDS,
    SIM_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    fleet_target,
    job_target,
    link_target,
    parse_target,
    ps_target,
    replica_target,
)


class TestTargets:
    def test_round_trip(self):
        assert parse_target(replica_target(2)) == ("replica", "2")
        assert parse_target(link_target(1, "nic")) == ("link", "1", "nic")
        assert parse_target(ps_target(3)) == ("ps", "3")
        assert parse_target(job_target(17)) == ("job", "17")
        assert parse_target(job_target("*")) == ("job", "*")
        assert parse_target(fleet_target()) == ("fleet",)


class TestFaultSpec:
    def test_activation_window_is_half_open(self):
        fault = FaultSpec(
            FaultKind.STRAGGLER, replica_target(0), 10.0, 5.0, 2.0
        )
        assert not fault.active_at(9.9)
        assert fault.active_at(10.0)
        assert fault.active_at(14.9)
        assert not fault.active_at(15.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.STRAGGLER, replica_target(0), -1.0, 5.0, 2.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.STRAGGLER, replica_target(0), 1.0, 0.0, 2.0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("field", ["onset", "duration", "severity"])
    def test_non_finite_rejected(self, field, value):
        values = {"onset": 1.0, "duration": 5.0, "severity": 2.0}
        values[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FaultSpec(FaultKind.STRAGGLER, replica_target(0), **values)

    @pytest.mark.parametrize(
        "kind,target,bad_severity",
        [
            (FaultKind.STRAGGLER, replica_target(0), 0.5),
            (FaultKind.LINK_DEGRADATION, link_target(0, "nic"), 0.0),
            (FaultKind.LINK_DEGRADATION, link_target(0, "nic"), 1.5),
            (FaultKind.PS_HOTSPOT, ps_target(0), 1.0),
            (FaultKind.WORKER_CRASH, job_target("*"), 0.0),
            (FaultKind.PREEMPTION_STORM, fleet_target(), 0.5),
        ],
    )
    def test_kind_specific_severity_validation(
        self, kind, target, bad_severity
    ):
        with pytest.raises(ValueError):
            FaultSpec(kind, target, 1.0, 5.0, bad_severity)

    def test_valid_severities_accepted(self):
        FaultSpec(FaultKind.STRAGGLER, replica_target(0), 0.0, 1.0, 1.0)
        FaultSpec(
            FaultKind.LINK_DEGRADATION, link_target(0, "pcie"), 0.0, 1.0, 1.0
        )
        FaultSpec(FaultKind.PS_HOTSPOT, ps_target(1), 0.0, 1.0, 3.0)
        FaultSpec(FaultKind.WORKER_CRASH, job_target(4), 0.0, 2.0, 2.0)
        FaultSpec(FaultKind.PREEMPTION_STORM, fleet_target(), 0.0, 3.0, 2.0)


class TestFaultPlan:
    def test_partitions_by_layer(self):
        sim = FaultSpec(FaultKind.STRAGGLER, replica_target(0), 5.0, 5.0, 2.0)
        sched = FaultSpec(FaultKind.WORKER_CRASH, job_target("*"), 2.0, 2.0, 2.0)
        plan = FaultPlan(seed=7, faults=(sim, sched))
        assert plan.sim_faults == (sim,)
        assert plan.sched_faults == (sched,)

    def test_kind_partition_is_total(self):
        assert set(SIM_KINDS) | set(SCHED_KINDS) == set(FaultKind)
        assert not set(SIM_KINDS) & set(SCHED_KINDS)
