"""Trace persistence: JSONL export/import of job records.

A characterization library needs to consume traces it did not generate;
this module defines the on-disk format (one JSON object per job, schema
version tagged) and a loader that validates against the feature schema.
It round-trips the synthetic trace exactly and accepts hand-written or
externally produced traces with the same fields.

Because the format is line-oriented it also streams: :func:`iter_trace`
yields validated records one line at a time without materializing the
trace (the ``repro.serve`` replayer feeds from it).

The loader is strict.  A record must be an object, and each field must
have the type :func:`job_to_dict` writes: ``int`` for the id, day,
cNode count and batch size (never ``bool``), ``int`` or ``float`` for
the feature volumes, and ``str`` for the labels.  Anything else raises
``ValueError`` instead of being coerced: :func:`iter_trace` names the
file and line, and ``POST /ingest`` answers 400.

Durability: :func:`save_trace` writes through :func:`atomic_write`
(a fsynced temporary sibling renamed into place, shared with the
columnar store), so a crash or an I/O error mid-write can never leave
a truncated file under the target name.

For populations beyond a few hundred thousand jobs, prefer the
columnar sibling format (:mod:`repro.trace.columnar`), which loads via
memory mapping instead of line-at-a-time JSON parsing.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from ..core.architectures import Architecture
from ..core.features import FEATURE_FIELDS, WorkloadFeatures
from .schema import JobRecord

__all__ = [
    "SCHEMA_VERSION",
    "job_to_dict",
    "job_from_dict",
    "save_trace",
    "load_trace",
    "iter_trace",
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


#: The exact types each feature field may hold.  Exact, so ``bool``
#: (an ``int`` subclass) is refused along with floats for counts and
#: numbers for labels.  Sets, because a hashed lookup is the cheapest
#: per-field test.
_FEATURE_KINDS = {name: frozenset({int, float}) for name in _FEATURE_FIELDS}
_FEATURE_KINDS.update(
    name=frozenset({str}),
    architecture=frozenset({str}),
    num_cnodes=frozenset({int}),
    batch_size=frozenset({int}),
)
#: Every type JSON decodes to: an unknown field passes the type check
#: and :class:`WorkloadFeatures` names it.
_JSON_KINDS = frozenset({str, int, float, bool, list, dict, type(None)})


def _wrong_type(field: str, value, kinds) -> ValueError:
    rule = "of type " + " or ".join(sorted(kind.__name__ for kind in kinds))
    if int in kinds:
        rule = "finite and " + rule
    return ValueError(
        f"{field} must be {rule}, not {type(value).__name__} {value!r:.60}"
    )


def job_from_dict(payload: dict) -> JobRecord:
    """Deserialize one job record; checks every field's type exactly.

    Nothing is coerced: a float id or day, a ``bool`` count, a numeric
    label or a record that is not an object raises ``ValueError``.
    """
    if type(payload) is not dict:
        raise _wrong_type("a job record", payload, {dict})
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema version: {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    raw = payload["features"]
    if type(raw) is not dict:
        raise _wrong_type("features", raw, {dict})
    kinds_of = _FEATURE_KINDS.get
    for field, value in raw.items():
        if type(value) not in kinds_of(field, _JSON_KINDS):
            raise _wrong_type(field, value, _FEATURE_KINDS[field])
    raw = dict(raw)
    architecture = Architecture.from_label(raw.pop("architecture"))
    features = WorkloadFeatures(architecture=architecture, **raw)
    job_id = payload["job_id"]
    submit_day = payload.get("submit_day", 0)
    user_group = payload.get("user_group", "default")
    if type(job_id) is not int:
        raise _wrong_type("job_id", job_id, {int})
    if type(submit_day) is not int:
        raise _wrong_type("submit_day", submit_day, {int})
    if type(user_group) is not str:
        raise _wrong_type("user_group", user_group, {str})
    return JobRecord(
        job_id=job_id,
        features=features,
        submit_day=submit_day,
        user_group=user_group,
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


def iter_trace(path: Union[str, Path]) -> Iterator[JobRecord]:
    """Yield validated records from a JSONL trace, one line at a time.

    The streaming counterpart of :func:`load_trace`: memory use is one
    line regardless of trace size, so a replayer can feed a multi-GB
    trace without materializing it.  A malformed line -- the last one
    included -- raises ``ValueError`` tagged with the file and the
    line number, exactly like the batch loader.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from error
            try:
                record = job_from_dict(payload)
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid job record: {error}"
                ) from error
            yield record


def load_trace(path: Union[str, Path]) -> List[JobRecord]:
    """Read a JSONL trace, validating every record."""
    return list(iter_trace(path))
