"""Testbed simulator (the measured side of Sec. IV).

One training step plays through FIFO reservations on the simulated
devices and bandwidth-shared channels (:mod:`repro.sim.resources`),
each booked as a :class:`TimelineRecord`.
"""

from .collectives import (
    CollectiveCost,
    allgatherv_time,
    broadcast_time,
    ps_pull_push_time,
    reduce_scatter_time,
    ring_allreduce_time,
)
from .events import TimelineRecord
from .executor import SimulationOptions, TestbedSimulator, simulate_step
from .injection import LINK_KINDS, StepFaults
from .measurement import StepMeasurement, medium_of_resource
from .pearl import PearlPartition, PearlSchedule, pearl_schedule, plan_pearl
from .ps import (
    PsProvisioning,
    hotspot_load_factor,
    ps_scaling_curve,
    ps_sync_time,
    recommended_ps_count,
    shard_loads,
)
from .resources import Channel, Device
from .stragglers import (
    JitterModel,
    expected_straggler_factor,
    straggled_step_time,
    synchronization_penalty_curve,
)
from .timeline import busy_fraction_by_resource, render_timeline
from .topology import SimCluster, SimServer, build_cluster

__all__ = [
    "Channel",
    "CollectiveCost",
    "Device",
    "JitterModel",
    "LINK_KINDS",
    "PearlPartition",
    "PearlSchedule",
    "PsProvisioning",
    "SimCluster",
    "SimServer",
    "SimulationOptions",
    "StepFaults",
    "StepMeasurement",
    "TestbedSimulator",
    "TimelineRecord",
    "allgatherv_time",
    "broadcast_time",
    "build_cluster",
    "expected_straggler_factor",
    "busy_fraction_by_resource",
    "hotspot_load_factor",
    "medium_of_resource",
    "pearl_schedule",
    "plan_pearl",
    "ps_pull_push_time",
    "ps_scaling_curve",
    "ps_sync_time",
    "recommended_ps_count",
    "reduce_scatter_time",
    "render_timeline",
    "ring_allreduce_time",
    "shard_loads",
    "simulate_step",
    "straggled_step_time",
    "synchronization_penalty_curve",
]
