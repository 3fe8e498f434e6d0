"""Symptom -> root-cause attribution.

Each fault kind leaves a distinguishable symptom signature in the
telemetry (this is what makes telemetry-only RCA possible here):

=====================  ===========================================
root cause             signature
=====================  ===========================================
``WORKER_CRASH``       a ``job_failure`` anomaly
``PREEMPTION_STORM``   a ``preemption_burst`` anomaly
``STRAGGLER``          ``compute_inflation`` on specific replicas
                       (their ``step_s`` inflates too)
``LINK_DEGRADATION``   ``link_rate_drop`` on one channel, *without*
                       compute inflation (only that server's
                       replica's ``step_s`` inflates)
``PS_HOTSPOT``         ``shard_skew`` on the shard counters, with
                       *every* replica's ``step_s`` inflated but
                       compute and link rates flat
=====================  ===========================================

The attribution order below encodes exactly that decision list; the
confidence is a crude corroboration count, not a probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from .detect import Anomaly, detect
from .spec import FaultKind

__all__ = ["Diagnosis", "diagnose", "localize"]


@dataclass(frozen=True)
class Diagnosis:
    """The pipeline's verdict on one telemetry stream."""

    kind: Optional[FaultKind]
    target: Optional[str]
    onset: Optional[float]
    confidence: float
    evidence: Tuple[str, ...]


def _strongest(anomalies: Sequence[Anomaly]) -> Anomaly:
    """Deterministic pick: largest magnitude, then target label."""
    return max(anomalies, key=lambda a: (a.magnitude, a.target))


def localize(anomalies: Iterable[Anomaly]) -> Diagnosis:
    """Attribute a set of anomalies to a single root cause."""
    flagged = list(anomalies)
    by_symptom: Dict[str, list] = {}
    for anomaly in flagged:
        by_symptom.setdefault(anomaly.symptom, []).append(anomaly)
    evidence = tuple(
        f"{a.symptom}@{a.target}(+{a.magnitude:.2f})" for a in flagged
    )

    failures = by_symptom.get("job_failure", [])
    if failures:
        first = min(failures, key=lambda a: a.onset)
        return Diagnosis(
            FaultKind.WORKER_CRASH, first.target, first.onset,
            min(1.0, len(failures)), evidence,
        )

    bursts = by_symptom.get("preemption_burst", [])
    if bursts:
        burst = bursts[0]
        return Diagnosis(
            FaultKind.PREEMPTION_STORM, burst.target, burst.onset,
            min(1.0, burst.magnitude / 6.0), evidence,
        )

    compute = by_symptom.get("compute_inflation", [])
    if compute:
        top = _strongest(compute)
        corroborated = any(
            a.target == top.target
            for a in by_symptom.get("step_inflation", [])
        )
        return Diagnosis(
            FaultKind.STRAGGLER, top.target, top.onset,
            1.0 if corroborated else 0.6, evidence,
        )

    drops = by_symptom.get("link_rate_drop", [])
    if drops:
        top = _strongest(drops)
        return Diagnosis(
            FaultKind.LINK_DEGRADATION, top.target, top.onset,
            min(1.0, 0.5 + top.magnitude), evidence,
        )

    skews = by_symptom.get("shard_skew", [])
    if skews:
        skew = skews[0]
        inflated = by_symptom.get("step_inflation", [])
        return Diagnosis(
            FaultKind.PS_HOTSPOT, skew.target, skew.onset,
            1.0 if len(inflated) > 1 else 0.6, evidence,
        )

    # Every replica slower with flat compute, links and shards: the
    # synchronization tier is sick but unattributable to one shard.
    inflated = by_symptom.get("step_inflation", [])
    if len(inflated) > 1:
        first = min(inflated, key=lambda a: a.onset)
        return Diagnosis(
            FaultKind.PS_HOTSPOT, None, first.onset, 0.3, evidence
        )

    return Diagnosis(None, None, None, 0.0, evidence)


def diagnose(events: Iterable[Dict[str, Any]]) -> Diagnosis:
    """Full pipeline: detect anomalies, then attribute them."""
    return localize(detect(events))
