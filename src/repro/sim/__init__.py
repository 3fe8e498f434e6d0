"""Testbed simulator (the measured side of Sec. IV).

One training step plays through FIFO reservations on the simulated
devices and bandwidth-shared channels (:mod:`repro.sim.resources`),
each booked as a :class:`TimelineRecord`.
"""

from .collectives import (
    CollectiveCost,
    allgatherv_time,
    reduce_scatter_time,
    ring_allreduce_time,
)
from .events import TimelineRecord
from .executor import SimulationOptions, TestbedSimulator, simulate_step
from .injection import LINK_KINDS, StepFaults
from .measurement import StepMeasurement, medium_of_resource
from .pearl import PearlPartition, PearlSchedule, pearl_schedule, plan_pearl
from .ps import hotspot_load_factor, shard_loads
from .resources import Channel, Device
from .timeline import render_timeline
from .topology import SimCluster, SimServer, build_cluster

__all__ = [
    "Channel",
    "CollectiveCost",
    "Device",
    "LINK_KINDS",
    "PearlPartition",
    "PearlSchedule",
    "SimCluster",
    "SimServer",
    "SimulationOptions",
    "StepFaults",
    "StepMeasurement",
    "TestbedSimulator",
    "TimelineRecord",
    "allgatherv_time",
    "build_cluster",
    "hotspot_load_factor",
    "medium_of_resource",
    "pearl_schedule",
    "plan_pearl",
    "reduce_scatter_time",
    "render_timeline",
    "ring_allreduce_time",
    "shard_loads",
    "simulate_step",
]
