"""Canonical digests of workload outputs, for the correctness gates.

A schedule digest must not depend on how the library *represents* a
placement -- a dense per-server tuple today, possibly sparse
(server, count) pairs later -- only on which GPUs each job held and
when.  Floats are hashed through ``float.hex`` so the digest is exact.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Tuple


def placement_pairs(placement) -> List[Tuple[int, int]]:
    """Sorted ``(server, gpus)`` pairs with ``gpus > 0``.

    Accepts a dense ``gpus_by_server`` tuple or parallel sparse
    ``servers`` / ``counts`` sequences.
    """
    dense = getattr(placement, "gpus_by_server", None)
    if dense is not None:
        pairs: Iterable = enumerate(dense)
    else:
        pairs = zip(placement.servers, placement.counts)
    return sorted((int(server), int(gpus)) for server, gpus in pairs if gpus > 0)


def _hex(value) -> str:
    return float(value).hex()


def schedule_digest(outcome) -> str:
    """SHA-256 over a :class:`repro.sched.ScheduleOutcome`: per job its
    id, arrival, service, retries and segments, then the rejected ids."""
    digest = hashlib.sha256()
    for job in outcome.outcomes:
        segments = ";".join(
            f"{_hex(segment.start_hour)},{_hex(segment.end_hour)},"
            + ",".join(
                f"{server}:{gpus}"
                for server, gpus in placement_pairs(segment.placement)
            )
            for segment in job.segments
        )
        digest.update(
            f"{job.job.job_id}|{_hex(job.arrival_hour)}|"
            f"{_hex(job.service_hours)}|{job.retries}|{segments}\n".encode()
        )
    rejected = ",".join(str(job.job_id) for job in outcome.rejected)
    digest.update(f"rejected|{rejected}\n".encode())
    return digest.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
