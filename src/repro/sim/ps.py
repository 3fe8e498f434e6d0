"""Parameter-server shard loads: the PS-side hotspot.

The analytical model charges a PS/Worker job's weight traffic to the
*worker's* NIC and PCIe (Sec. II-B).  With ``w`` workers each moving
``V`` bytes per step and the variables sharded over the parameter
servers, every PS NIC carries its shard's share of the aggregate
``w * V`` bytes.  A skewed sharding funnels more of that traffic
through one hot shard; :func:`hotspot_load_factor` is the factor the
step executor stretches the Ethernet hop by, and :func:`shard_loads`
is the per-shard byte counter the fault telemetry samples.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["hotspot_load_factor", "shard_loads"]


def shard_loads(
    total_traffic: float, shard_weights: Sequence[float]
) -> List[float]:
    """Bytes each PS shard carries per step under a weight vector.

    ``shard_weights`` are relative (normalized here); even weights give
    the classic ``total / p`` split.  This is exactly the per-shard
    byte counter a real PS fleet exports, which is why the telemetry
    layer samples it as a hotspot symptom.
    """
    if total_traffic < 0:
        raise ValueError("total_traffic must be non-negative")
    if not shard_weights:
        raise ValueError("shard_weights must be non-empty")
    if any(weight <= 0 for weight in shard_weights):
        raise ValueError("shard weights must be positive")
    total_weight = float(sum(shard_weights))
    return [total_traffic * weight / total_weight for weight in shard_weights]


def hotspot_load_factor(
    num_workers: int, shard_weights: Sequence[float]
) -> float:
    """NIC load factor of the hottest shard relative to one worker.

    With even sharding over ``p`` parameter servers this reduces to
    ``w / p``; a skewed weight vector funnels a larger share of the
    aggregate ``w * V`` traffic through the hot shard's NIC, stretching
    the incast wall accordingly.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    loads = shard_loads(float(num_workers), shard_weights)
    return max(loads)
