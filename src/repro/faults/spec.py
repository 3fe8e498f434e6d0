"""Typed, seeded fault specifications.

A :class:`FaultPlan` is the ground truth of one fault scenario: which
:class:`FaultKind` strikes, where (a canonical target label), when (an
activation window) and how hard (a kind-specific severity).  The plan
is compiled down to the low-layer injection hooks
(:class:`repro.sim.StepFaults` / :class:`repro.sched.SchedFaults`) by
:mod:`repro.faults.injector`; the detection pipeline never sees it --
it works from :mod:`repro.obs` telemetry alone and is graded against
the plan afterwards.

Target labels are plain strings so they survive JSON round trips and
can be compared verbatim between ground truth and diagnosis:

========================  ======================================
label                     meaning
========================  ======================================
``replica:<i>``           flat replica index ``i`` (straggler)
``link:<server>:<kind>``  one server's ``pcie``/``nic``/``nvlink``
``ps:<shard>``            one parameter-server shard (hotspot)
``job:<id>``              one job (crash victim); ``job:*`` means
                          "whichever job the dead worker hits"
``fleet``                 the whole cluster (preemption storm)
========================  ======================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "SCHED_KINDS",
    "SIM_KINDS",
    "fleet_target",
    "job_target",
    "link_target",
    "parse_target",
    "ps_target",
    "replica_target",
]


class FaultKind(str, Enum):
    """The five injectable root causes."""

    STRAGGLER = "straggler"
    LINK_DEGRADATION = "link_degradation"
    WORKER_CRASH = "worker_crash"
    PS_HOTSPOT = "ps_hotspot"
    PREEMPTION_STORM = "preemption_storm"


#: Kinds injected into the step simulator (tick-indexed windows).
SIM_KINDS = (
    FaultKind.STRAGGLER,
    FaultKind.LINK_DEGRADATION,
    FaultKind.PS_HOTSPOT,
)

#: Kinds injected into the scheduling engine (hour-indexed windows).
SCHED_KINDS = (FaultKind.WORKER_CRASH, FaultKind.PREEMPTION_STORM)


def replica_target(replica: int) -> str:
    """The canonical label of one flat replica index (straggler)."""
    return f"replica:{replica}"


def link_target(server: int, kind: str) -> str:
    """The canonical label of one server's pcie/nic/nvlink channel."""
    return f"link:{server}:{kind}"


def ps_target(shard: int) -> str:
    """The canonical label of one parameter-server shard (hotspot)."""
    return f"ps:{shard}"


def job_target(job_id) -> str:
    """The canonical label of one job; ``job:*`` means any victim."""
    return f"job:{job_id}"


def fleet_target() -> str:
    """The canonical label of the whole cluster (preemption storm)."""
    return "fleet"


def parse_target(target: str) -> Tuple[str, ...]:
    """Split a canonical target label into its components."""
    return tuple(target.split(":"))


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Attributes:
        kind: The root cause.
        target: Canonical target label (see the module docstring).
        onset: Window start -- simulator ticks for :data:`SIM_KINDS`,
            engine hours for :data:`SCHED_KINDS`.
        duration: Window length, same unit as ``onset``.
        severity: Kind-specific magnitude:

            * ``STRAGGLER`` -- compute slowdown multiplier (``>= 1``);
            * ``LINK_DEGRADATION`` -- remaining bandwidth fraction
              (``0 < s <= 1``);
            * ``PS_HOTSPOT`` -- hot shard's traffic weight relative to
              the even share of 1 (``> 1``);
            * ``WORKER_CRASH`` -- retry backoff in hours;
            * ``PREEMPTION_STORM`` -- victims evicted per wave.
    """

    kind: FaultKind
    target: str
    onset: float
    duration: float
    severity: float

    def __post_init__(self) -> None:
        # NaN passes every range check below (all its comparisons are
        # false), and inf overflows the injector's integer conversions.
        for name in ("onset", "duration", "severity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.onset < 0:
            raise ValueError("onset must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.kind is FaultKind.STRAGGLER and self.severity < 1.0:
            raise ValueError("straggler severity is a slowdown (>= 1)")
        if self.kind is FaultKind.LINK_DEGRADATION and not (
            0.0 < self.severity <= 1.0
        ):
            raise ValueError(
                "link severity is the remaining bandwidth fraction (0, 1]"
            )
        if self.kind is FaultKind.PS_HOTSPOT and self.severity <= 1.0:
            raise ValueError("hotspot severity is a relative weight (> 1)")
        if self.kind is FaultKind.WORKER_CRASH and self.severity <= 0:
            raise ValueError("crash severity is a backoff in hours (> 0)")
        if self.kind is FaultKind.PREEMPTION_STORM and self.severity < 1:
            raise ValueError("storm severity is victims per wave (>= 1)")

    def active_at(self, t: float) -> bool:
        """Whether the fault is live at tick/hour ``t``."""
        return self.onset <= t < self.onset + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """The full ground truth of one scenario: seed plus fault set."""

    seed: int
    faults: Tuple[FaultSpec, ...]

    @property
    def sim_faults(self) -> Tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.kind in SIM_KINDS)

    @property
    def sched_faults(self) -> Tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.kind in SCHED_KINDS)
