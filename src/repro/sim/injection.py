"""Fault-injection hooks for the testbed simulator.

The simulator is failure-free by construction; multi-tenant PAI
clusters are not.  :class:`StepFaults` is the narrow waist between a
fault *plan* (owned by :mod:`repro.faults`, a higher layer) and the
simulator's mechanics: one frozen record of everything that is wrong
with the cluster during one simulated step.

Three fault surfaces map onto the paper's cost structure:

* **compute stragglers** -- a per-replica slowdown multiplier applied
  to every kernel of that replica (CPU interference, thermal
  throttling, a sick GPU);
* **link degradation** -- a bandwidth multiplier on one server's PCIe
  complex, NIC or NVLink mesh (flaky cable, congested ToR port);
* **PS shard hotspots** -- a skewed shard-weight vector for the
  parameter-server fleet, stretching the incast wall of
  :mod:`repro.sim.ps` beyond the even-sharding assumption.

The executor consumes a ``StepFaults`` per step; the plan layer above
decides *when* each fault is active and compiles the active set down to
this record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from .topology import SimCluster

__all__ = ["StepFaults", "LINK_KINDS"]

#: Channel kinds addressable by a link-degradation fault.
LINK_KINDS = ("pcie", "nic", "nvlink")


@dataclass(frozen=True)
class StepFaults:
    """Everything wrong with the simulated cluster during one step.

    Attributes:
        compute_multipliers: Per-replica compute slowdown factors
            (``>= 1``; 1 = healthy), keyed by flat replica index.
        link_bandwidth: Bandwidth multipliers (``0 < m <= 1``; 1 =
            healthy) keyed by ``(server_index, kind)`` with kind one of
            :data:`LINK_KINDS`.
        ps_shard_weights: Relative traffic weights of the PS shards
            (normalized internally); ``None`` means even sharding.
    """

    compute_multipliers: Mapping[int, float] = field(default_factory=dict)
    link_bandwidth: Mapping[Tuple[int, str], float] = field(
        default_factory=dict
    )
    ps_shard_weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        for replica, multiplier in self.compute_multipliers.items():
            if replica < 0:
                raise ValueError("replica index must be non-negative")
            if multiplier < 1.0:
                raise ValueError(
                    "compute multipliers are slowdowns and must be >= 1"
                )
        for (server, kind), multiplier in self.link_bandwidth.items():
            if server < 0:
                raise ValueError("server index must be non-negative")
            if kind not in LINK_KINDS:
                raise ValueError(
                    f"unknown link kind {kind!r}; expected one of {LINK_KINDS}"
                )
            if not 0.0 < multiplier <= 1.0:
                raise ValueError(
                    "link bandwidth multipliers must be in (0, 1]"
                )
        if self.ps_shard_weights is not None:
            if not self.ps_shard_weights:
                raise ValueError("ps_shard_weights must be non-empty")
            if any(weight <= 0 for weight in self.ps_shard_weights):
                raise ValueError("ps shard weights must be positive")

    def compute_multiplier(self, replica: int) -> float:
        """The slowdown factor of one replica (1.0 when healthy)."""
        return self.compute_multipliers.get(replica, 1.0)

    def degrade_cluster(self, cluster: SimCluster) -> None:
        """Apply the link-bandwidth faults to a freshly built cluster.

        Mutates the targeted channels in place; the executor builds a
        new cluster per step, so degradation never leaks across steps.
        Targets outside the cluster geometry are ignored (a fault on a
        server the deployment does not use has no observable symptom).
        """
        for (server_index, kind), multiplier in self.link_bandwidth.items():
            if server_index >= len(cluster.servers):
                continue
            server = cluster.servers[server_index]
            channel = getattr(server, kind, None)
            if channel is None:
                continue
            channel.bandwidth = channel.bandwidth * multiplier
