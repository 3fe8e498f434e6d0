"""Trace persistence: JSONL export/import of job records.

A characterization library needs to consume traces it did not generate;
this module defines the on-disk format (one JSON object per job, schema
version tagged) and a loader that validates against the feature schema.
It round-trips the synthetic trace exactly and accepts hand-written or
externally produced traces with the same fields.

Because the format is line-oriented it also streams: :func:`iter_trace`
yields validated records one line at a time without materializing the
trace (the ``repro.serve`` replayer feeds from it), and
:func:`append_trace` extends an existing file in place, so a trace can
grow batch by batch the same way a live cluster log does.

Durability: :func:`save_trace` writes through :func:`atomic_write`
(a fsynced temporary sibling renamed into place, shared with the
columnar store), so a crash mid-write can never leave a truncated file
under the target name; :func:`append_trace` flushes and fsyncs before
returning, so acknowledged batches survive a crash.
The only window left is a crash *inside* an append, which can tear the
final line -- :func:`iter_trace` can skip exactly that case with
``tolerate_torn_tail=True``.

For populations beyond a few hundred thousand jobs, prefer the
columnar sibling format (:mod:`repro.trace.columnar`), which loads via
memory mapping instead of line-at-a-time JSON parsing.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

from ..core.architectures import Architecture
from ..core.features import FEATURE_FIELDS, WorkloadFeatures
from ..obs import WARNING, get_obs
from .schema import JobRecord

__all__ = [
    "SCHEMA_VERSION",
    "job_to_dict",
    "job_from_dict",
    "save_trace",
    "load_trace",
    "iter_trace",
    "append_trace",
]

SCHEMA_VERSION = 1

#: Feature fields written as-is; ``architecture`` is written by label.
_FEATURE_FIELDS = tuple(
    name for name in FEATURE_FIELDS if name != "architecture"
)


def job_to_dict(job: JobRecord) -> dict:
    """Serialize one job record to a plain dict."""
    features = job.features
    payload = {field: getattr(features, field) for field in _FEATURE_FIELDS}
    payload["architecture"] = features.architecture.value
    return {
        "schema_version": SCHEMA_VERSION,
        "job_id": job.job_id,
        "submit_day": job.submit_day,
        "user_group": job.user_group,
        "features": payload,
    }


def job_from_dict(payload: dict) -> JobRecord:
    """Deserialize one job record; validates through the schema types."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema version: {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    raw = dict(payload["features"])
    architecture = Architecture.from_label(raw.pop("architecture"))
    features = WorkloadFeatures(architecture=architecture, **raw)
    return JobRecord(
        job_id=int(payload["job_id"]),
        features=features,
        submit_day=int(payload.get("submit_day", 0)),
        user_group=str(payload.get("user_group", "default")),
    )


@contextmanager
def atomic_write(path: Path, mode: str = "wb") -> Iterator[IO]:
    """Open ``path`` for a write that lands whole or not at all.

    The body writes to a ``.tmp`` sibling; on a clean exit the handle
    is flushed and fsynced and the sibling is renamed over ``path``.
    If the body raises (anything, ``KeyboardInterrupt`` included), the
    sibling is removed and any pre-existing file at ``path`` is left
    byte-identical.  Text modes write UTF-8.
    """
    tmp = path.with_name(path.name + ".tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with tmp.open(mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def save_trace(jobs: Iterable[JobRecord], path: Union[str, Path]) -> int:
    """Write a trace as JSON lines; returns the job count.

    The write goes through :func:`atomic_write`: a crash (or an
    exception raised by the ``jobs`` iterable) mid-write leaves any
    pre-existing trace at ``path`` untouched instead of a truncated,
    half-valid file.
    """
    count = 0
    with atomic_write(Path(path), "w") as handle:
        for job in jobs:
            handle.write(json.dumps(job_to_dict(job), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def append_trace(jobs: Iterable[JobRecord], path: Union[str, Path]) -> int:
    """Append records to a (possibly new) JSONL trace; returns the count.

    Appending is how a streamed trace grows on disk: batches written by
    successive calls read back, via :func:`iter_trace` or
    :func:`load_trace`, exactly as if :func:`save_trace` had written
    them all at once.  The handle is flushed and fsynced before the
    count is returned, so an acknowledged batch survives a crash; a
    crash *during* the append can tear at most the final line, which
    :func:`iter_trace` recovers from with ``tolerate_torn_tail=True``.
    """
    count = 0
    with Path(path).open("a", encoding="utf-8") as handle:
        for job in jobs:
            handle.write(json.dumps(job_to_dict(job), sort_keys=True))
            handle.write("\n")
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    return count


def iter_trace(
    path: Union[str, Path], tolerate_torn_tail: bool = False
) -> Iterator[JobRecord]:
    """Yield validated records from a JSONL trace, one line at a time.

    The streaming counterpart of :func:`load_trace`: memory use is one
    line regardless of trace size, so a replayer can feed a multi-GB
    trace without materializing it.  Malformed lines raise ``ValueError``
    tagged with the offending line number, exactly like the batch loader.

    With ``tolerate_torn_tail=True`` a malformed *final* line -- the
    signature of a writer killed mid-:func:`append_trace` (no trailing
    newline, truncated JSON) -- is skipped with an ``obs`` warning
    instead of poisoning the whole trace.  Corruption anywhere before
    the final line still raises: a torn tail is an expected crash
    artifact, a torn middle is not.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        pending_error: Optional[Exception] = None
        pending_line: int = 0
        for line_number, line in enumerate(handle, start=1):
            if pending_error is not None:
                # The malformed line was not the last one: real
                # mid-file corruption, never a torn tail.
                raise pending_error
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as error:
                decorated = ValueError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                )
                decorated.__cause__ = error
                if tolerate_torn_tail:
                    pending_error = decorated
                    pending_line = line_number
                    continue
                raise decorated
            try:
                record = job_from_dict(payload)
            except (KeyError, TypeError, ValueError) as error:
                # An undecodable *record* is valid JSON that fails the
                # schema -- a writer bug, not a torn write; a torn tail
                # can only produce truncated (invalid) JSON.
                raise ValueError(
                    f"{path}:{line_number}: invalid job record: {error}"
                ) from error
            yield record
        if pending_error is not None:
            get_obs().event(
                "trace.torn_tail",
                level=WARNING,
                path=str(path),
                line=pending_line,
                detail=str(pending_error),
            )


def load_trace(
    path: Union[str, Path], tolerate_torn_tail: bool = False
) -> List[JobRecord]:
    """Read a JSONL trace, validating every record."""
    return list(iter_trace(path, tolerate_torn_tail=tolerate_torn_tail))
