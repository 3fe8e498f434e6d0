"""Sharded columnar trace store: million-job traces without Python loops.

The JSONL format (:mod:`repro.trace.serialization`) parses one JSON
object per job, which caps practical populations around the tens of
thousands.  This module stores the same records as *columns*: a store
is a directory of ``.npz`` shards (one NumPy array per feature column)
plus a ``manifest.json`` carrying the schema version, per-shard row
counts and per-shard SHA-256 content digests.  The two formats convert
losslessly in both directions.

Layout::

    trace.columnar/
        manifest.json        <- commit point, written last
        shard-00000.npz
        shard-00001.npz
        ...

The format is a property of the path: a directory is a store, anything
else a JSONL file (:func:`is_columnar_store` reads no file).
:meth:`ColumnarTrace.open` is the one reader of ``manifest.json``, and
every error it raises names the manifest.

A shard's SHA-256 is checked against the manifest's the first time
the shard is read, before any of its bytes are parsed (about 1 ms per
MB), so a flipped byte is an error naming the shard, never wrong
statistics.  Columns then load via ``np.memmap`` straight out of the
shard files: ``np.savez`` stores members uncompressed, so each ``.npy``
member sits at a fixed offset inside the zip.

Strings are dictionary-encoded: ``architecture`` and ``user_group``
hold integer codes into label tables kept in the manifest, and ``name``
is a fixed-width bytes column.  The integer architecture codes are what
:meth:`repro.core.population.FeatureArrays.from_columnar` consumes to
build the vectorized analysis population without materializing a single
``JobRecord``.

Durability mirrors the JSONL path: every shard goes through
:func:`repro.trace.serialization.atomic_write` (a fsynced ``.tmp``
sibling, renamed into place), and the manifest -- the only file that
makes shards reachable -- is written the same way *last*, so a crash
mid-conversion can never leave a store that opens but lies.  A rewrite
puts its shards under names the old manifest does not list and deletes
the old shards only after its own manifest commits, so the old store
stays whole until then.

Writers take rows (:data:`repro.trace.schema.ROW_FIELDS` tuples):
:func:`write_rows` packs them straight into shard columns, which is how
``pai-repro trace --format columnar`` stores the generator's output
without a per-job object, and :func:`write_columnar` flattens records
into the same rows.
"""

from __future__ import annotations

import hashlib
import json
import operator
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np
from numpy.lib import format as npy_format

from ..core.architectures import Architecture
from ..core.features import FEATURE_FIELDS
from ..core.population import FeatureArrays
from ..obs import get_obs
from .schema import ROW_FIELDS, JobRecord, JobView
from .serialization import SCHEMA_VERSION, atomic_write, iter_trace, save_trace

__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_VERSION",
    "DEFAULT_SHARD_ROWS",
    "MANIFEST_NAME",
    "INT_COLUMNS",
    "FLOAT_COLUMNS",
    "ColumnarTrace",
    "ShardInfo",
    "write_columnar",
    "write_rows",
    "jsonl_to_columnar",
    "columnar_to_jsonl",
    "is_columnar_store",
]

#: Manifest ``format`` marker, checked by :meth:`ColumnarTrace.open`.
COLUMNAR_FORMAT = "pai-repro-columnar"

#: Version of the columnar layout itself (manifest keys, encodings).
#: Version 2 terminates every encoded name with a ``0x01`` sentinel
#: byte: NumPy's fixed-width ``S`` dtype strips *trailing NUL bytes* on
#: element access, so version-1 stores silently corrupted any job name
#: whose UTF-8 encoding ended in ``\x00``.  The sentinel is never
#: NUL, so nothing after the real name bytes can be stripped.
COLUMNAR_VERSION = 2

#: Rows per shard.  Large enough that a 1M-job store is a handful of
#: files, small enough that converting bounds its buffering memory.
DEFAULT_SHARD_ROWS = 262_144

MANIFEST_NAME = "manifest.json"

#: Integer feature columns, in manifest order.  ``user_group`` and
#: ``architecture`` are dictionary codes into the manifest label tables.
INT_COLUMNS: Tuple[str, ...] = (
    "job_id",
    "submit_day",
    "user_group",
    "architecture",
    "num_cnodes",
    "batch_size",
)

#: Float feature columns (all byte/FLOP volumes of the Fig. 4 schema).
FLOAT_COLUMNS: Tuple[str, ...] = (
    "flop_count",
    "memory_access_bytes",
    "input_bytes",
    "weight_traffic_bytes",
    "dense_weight_bytes",
    "embedding_weight_bytes",
    "embedding_traffic_bytes",
)

#: The fixed-width bytes column (UTF-8 job names).
NAME_COLUMN = "name"

_ALL_COLUMNS: Tuple[str, ...] = INT_COLUMNS + FLOAT_COLUMNS + (NAME_COLUMN,)

#: Architecture labels in enum order; the store's code space.
_ARCH_LABELS: Tuple[str, ...] = tuple(arch.value for arch in Architecture)
_ARCH_CODES: Dict[Architecture, int] = {
    arch: code for code, arch in enumerate(Architecture)
}

_FEATURES_OF = operator.attrgetter(*FEATURE_FIELDS)

# Zip local-file-header layout (PKZIP appnote 4.3.7): signature,
# then the name/extra lengths at byte offsets 26 and 28.
_ZIP_LOCAL_HEADER_SIGNATURE = 0x04034B50
_ZIP_LOCAL_HEADER_SIZE = 30
_ZIP_NAME_EXTRA_STRUCT = struct.Struct("<HH")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _mapped_members(path: Path) -> Dict[str, np.ndarray]:
    """Memory-map every ``.npy`` member of an uncompressed ``.npz``.

    ``np.savez`` writes members with ``ZIP_STORED`` (no compression), so
    each member's array data lives at a computable byte offset inside
    the zip: local file header, then the npy header, then the raw
    buffer.  ``np.load(mmap_mode=...)`` does not map into zips, so this
    does the offset arithmetic itself and hands each member to
    ``np.memmap``.  A member that cannot be mapped (compressed, an
    object dtype, a bad local or npy header) is a ``ValueError``.
    """
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, path.open("rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{info.filename} is compressed")
            raw.seek(info.header_offset)
            header = raw.read(_ZIP_LOCAL_HEADER_SIZE)
            if (
                len(header) < _ZIP_LOCAL_HEADER_SIZE
                or struct.unpack("<I", header[:4])[0]
                != _ZIP_LOCAL_HEADER_SIGNATURE
            ):
                raise ValueError(f"{info.filename}: bad local header")
            name_len, extra_len = _ZIP_NAME_EXTRA_STRUCT.unpack(header[26:30])
            member_start = (
                info.header_offset
                + _ZIP_LOCAL_HEADER_SIZE
                + name_len
                + extra_len
            )
            raw.seek(member_start)
            version = npy_format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = npy_format.read_array_header_1_0(raw)
            elif version == (2, 0):
                shape, fortran, dtype = npy_format.read_array_header_2_0(raw)
            else:
                raise ValueError(
                    f"{info.filename}: unsupported npy version {version}"
                )
            if dtype.hasobject:
                raise ValueError(f"{info.filename}: object dtype")
            column = info.filename
            if column.endswith(".npy"):
                column = column[: -len(".npy")]
            arrays[column] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=raw.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )
    return arrays


@dataclass(frozen=True)
class ShardInfo:
    """One shard as recorded by the manifest."""

    file: str
    rows: int
    sha256: str


def _manifest_shards(manifest: dict, path: Path) -> Tuple[ShardInfo, ...]:
    """The shard table of a decoded manifest whose keys have the shape
    :func:`write_columnar` writes; ``ValueError`` naming ``path`` if not.
    """
    try:
        jobs, labels, groups, entries = (
            manifest[key]
            for key in ("jobs", "architectures", "user_groups", "shards")
        )
    except KeyError as missing:
        raise ValueError(f"{path}: no {missing} key") from None
    for key, values in (("architectures", labels), ("user_groups", groups)):
        if not isinstance(values, list) or not all(
            isinstance(value, str) for value in values
        ):
            raise ValueError(f"{path}: {key!r} is not a list of strings")
    known = {label.lower() for label in _ARCH_LABELS}
    for label in labels:
        if label.lower() not in known:
            raise ValueError(f"{path}: unknown architecture label {label!r}")
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get("file"), str)
        and type(entry.get("rows")) is int
        and entry["rows"] >= 0
        and isinstance(entry.get("sha256"), str)
        for entry in entries
    ):
        raise ValueError(f"{path}: 'shards' is not a list of shard entries")
    shards = tuple(
        ShardInfo(entry["file"], entry["rows"], entry["sha256"])
        for entry in entries
    )
    rows = sum(shard.rows for shard in shards)
    if type(jobs) is not int or jobs != rows:
        raise ValueError(f"{path}: 'jobs' is {jobs!r}, the shards hold {rows}")
    return shards


#: Rows the shard writer holds as tuples before it packs them into the
#: shard's columns, so a shard in progress costs about its columns' bytes.
_PACK_ROWS = 16_384


class _ShardWriter:
    """Packs :data:`~repro.trace.schema.ROW_FIELDS` rows into columns
    and flushes fixed-size shards, each checked by
    :meth:`FeatureArrays.from_columnar` before it is written.

    Shards are written under names that ``taken`` (the shard files of
    the store being replaced) does not hold, so the old store stays
    whole until the new manifest commits.
    """

    def __init__(self, directory: Path, shard_rows: int, taken: Set[str]) -> None:
        if shard_rows < 1:
            raise ValueError("shard_rows must be at least 1")
        self._directory = directory
        self._shard_rows = shard_rows
        self._taken = taken
        self._group_codes: Dict[str, int] = {}
        self.user_groups: List[str] = []
        self.shards: List[ShardInfo] = []
        self._rows: List[tuple] = []
        self._pack_rows = min(_PACK_ROWS, shard_rows)
        self._packed = 0
        self._columns: Dict[str, np.ndarray] = {}
        self._names: List[bytes] = []

    def _group_code(self, label: str) -> int:
        code = self._group_codes.get(label)
        if code is None:
            code = len(self.user_groups)
            self._group_codes[label] = code
            self.user_groups.append(label)
        return code

    def add(self, row: tuple) -> None:
        self._rows.append(row)
        if len(self._rows) >= self._pack_rows:
            self._pack()

    def flush(self) -> None:
        if self._rows:
            self._pack()
        if self._packed:
            self._write_shard()

    def _pack(self) -> None:
        """Copy the held rows into the shard's columns; write it if full."""
        job_ids, days, groups, names, architectures, *numbers = zip(*self._rows)
        start = self._packed
        self._packed += len(self._rows)
        self._rows = []
        if start == 0:
            self._columns = {
                name: np.empty(self._shard_rows, dtype=np.int64)
                for name in INT_COLUMNS
            }
            self._columns.update(
                (name, np.empty(self._shard_rows, dtype=np.float64))
                for name in FLOAT_COLUMNS
            )
        rows = slice(start, self._packed)
        columns = self._columns
        columns["job_id"][rows] = job_ids
        columns["submit_day"][rows] = days
        columns["user_group"][rows] = [self._group_code(g) for g in groups]
        columns["architecture"][rows] = [_ARCH_CODES[a] for a in architectures]
        for name, values in zip(ROW_FIELDS[5:], numbers):
            columns[name][rows] = values
        # Sentinel-terminated (see COLUMNAR_VERSION): guards trailing
        # NUL bytes against the S-dtype's trailing-NUL stripping.
        self._names.extend(name.encode("utf-8") + b"\x01" for name in names)
        if self._packed == self._shard_rows:
            self._write_shard()
        self._pack_rows = min(_PACK_ROWS, self._shard_rows - self._packed)

    def _fresh_name(self) -> str:
        stem = f"shard-{len(self.shards):05d}"
        filename = f"{stem}.npz"
        generation = 0
        while filename in self._taken:
            generation += 1
            filename = f"{stem}-{generation}.npz"
        return filename

    def _write_shard(self) -> None:
        rows, self._packed = self._packed, 0
        names, self._names = self._names, []
        width = max(map(len, names))
        # Member order is the manifest's column order.
        columns = {
            name: self._columns[name][:rows]
            for name in INT_COLUMNS + FLOAT_COLUMNS
        }
        columns[NAME_COLUMN] = np.array(names, dtype=np.dtype(f"S{width}"))
        try:
            FeatureArrays.from_columnar(columns, architectures=tuple(Architecture))
        except ValueError as error:
            start = sum(shard.rows for shard in self.shards)
            raise ValueError(f"{error} (of the shard from row {start})") from None
        filename = self._fresh_name()
        path = self._directory / filename
        with atomic_write(path) as handle:
            np.savez(handle, **columns)
        self.shards.append(
            ShardInfo(file=filename, rows=rows, sha256=_sha256_file(path))
        )


def write_columnar(
    jobs: Iterable[JobRecord],
    path: Union[str, Path],
    shard_rows: int = DEFAULT_SHARD_ROWS,
) -> int:
    """Write a trace as a columnar store directory; returns the job count.

    Each job is flattened to a :data:`~repro.trace.schema.ROW_FIELDS`
    row and written by :func:`write_rows`.
    """
    return write_rows(
        (
            (job.job_id, job.submit_day, job.user_group)
            + _FEATURES_OF(job.features)
            for job in jobs
        ),
        path,
        shard_rows=shard_rows,
    )


def write_rows(
    rows: Iterable[tuple],
    path: Union[str, Path],
    shard_rows: int = DEFAULT_SHARD_ROWS,
) -> int:
    """Write :data:`~repro.trace.schema.ROW_FIELDS` rows as a columnar
    store directory; returns the row count.

    Streams ``rows`` into ``shard_rows``-sized ``.npz`` shards, each
    validated by :meth:`FeatureArrays.from_columnar` first, then
    commits the store by writing ``manifest.json`` (schema version,
    label tables, per-shard row counts and SHA-256 digests).  Shards
    and manifest each go through a fsynced ``.tmp`` rename.

    Rewriting a store is all or nothing: the new shards take names the
    current manifest does not list, the manifest is written last, and
    only then are the shard files it does not list deleted.  A write
    that fails before its manifest commits deletes the shards it wrote
    and leaves the previous store as it was.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        taken = {shard.file for shard in ColumnarTrace.open(directory).shards}
    except (OSError, ValueError):
        taken = set()  # no readable store to keep
    writer = _ShardWriter(directory, shard_rows, taken)
    count = 0
    try:
        for row in rows:
            writer.add(row)
            count += 1
        writer.flush()
        manifest = {
            "format": COLUMNAR_FORMAT,
            "columnar_version": COLUMNAR_VERSION,
            "schema_version": SCHEMA_VERSION,
            "jobs": count,
            "columns": list(_ALL_COLUMNS),
            "architectures": list(_ARCH_LABELS),
            "user_groups": writer.user_groups,
            "shards": [
                {"file": s.file, "rows": s.rows, "sha256": s.sha256}
                for s in writer.shards
            ],
        }
        payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        with atomic_write(directory / MANIFEST_NAME) as handle:
            handle.write(payload.encode("utf-8"))
    except BaseException:
        for shard in writer.shards:
            (directory / shard.file).unlink(missing_ok=True)
        raise
    kept = {shard.file for shard in writer.shards}
    for stale in directory.glob("shard-*.npz"):
        if stale.name not in kept:
            stale.unlink(missing_ok=True)
    get_obs().event(
        "trace.columnar.write",
        path=str(directory),
        jobs=count,
        shards=len(writer.shards),
    )
    return count


def is_columnar_store(path: Union[str, Path]) -> bool:
    """Whether ``path`` names a columnar store rather than a JSONL file.

    The format is a property of the path, decided without reading a
    file: a directory is a store.  Whether the store is intact is for
    :meth:`ColumnarTrace.open` to say.
    """
    return Path(path).is_dir()


class ColumnarTrace:
    """A committed columnar store, opened for reading.

    Columns come back as NumPy arrays memory-mapped straight out of the
    shard files (single-shard stores are zero-copy; multi-shard stores
    concatenate per column on first touch).  :meth:`feature_arrays`
    yields the vectorized analysis population without building a single
    per-job object, and :meth:`iter_records` decodes back to
    :class:`JobRecord` streams for lossless JSONL conversion.
    """

    def __init__(
        self,
        path: Path,
        manifest: dict,
        shards: Sequence[ShardInfo],
    ) -> None:
        self._path = path
        self._manifest = manifest
        self._shards = tuple(shards)
        self._columns: Dict[str, np.ndarray] = {}
        self._shard_members: Optional[List[Dict[str, np.ndarray]]] = None
        self.user_groups: Tuple[str, ...] = tuple(manifest["user_groups"])
        self.architectures: Tuple[Architecture, ...] = tuple(
            Architecture.from_label(label)
            for label in manifest["architectures"]
        )

    @classmethod
    def open(cls, path: Union[str, Path]) -> "ColumnarTrace":
        """Open a store directory, reading its manifest and no shard.

        This is the one reader of ``manifest.json``, and every error it
        raises names it: ``FileNotFoundError`` when there is none, and
        ``ValueError`` for a manifest that is not JSON or has another
        shape than :func:`write_columnar` writes.  Shards are checked
        when first read (:meth:`verify` reads them all).
        """
        directory = Path(path)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"{manifest_path}: no such file, so {directory} is not "
                "a columnar store"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise ValueError(f"{manifest_path}: not JSON ({error})") from None
        if not isinstance(manifest, dict):
            raise ValueError(f"{manifest_path}: not a JSON object")
        if manifest.get("format") != COLUMNAR_FORMAT:
            raise ValueError(
                f"{manifest_path}: unrecognized format marker "
                f"{manifest.get('format')!r}"
            )
        if manifest.get("columnar_version") != COLUMNAR_VERSION:
            raise ValueError(
                f"{manifest_path}: unsupported columnar version "
                f"{manifest.get('columnar_version')!r} "
                f"(expected {COLUMNAR_VERSION}); re-convert the trace "
                "from JSONL (older stores can silently corrupt job "
                "names ending in NUL bytes)"
            )
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"{manifest_path}: unsupported trace schema version "
                f"{manifest.get('schema_version')!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(directory, manifest, _manifest_shards(manifest, manifest_path))

    # ---- identity ----------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def num_jobs(self) -> int:
        return int(self._manifest["jobs"])

    def __len__(self) -> int:
        return self.num_jobs

    @property
    def shards(self) -> Tuple[ShardInfo, ...]:
        return self._shards

    def digest(self) -> str:
        """A single content digest of the whole store.

        Hashes the manifest-recorded shard digests (plus schema and
        label tables), so it identifies the trace *contents* regardless
        of where the directory lives.  Result caches key on it.
        """
        digest = hashlib.sha256()
        digest.update(
            json.dumps(
                {
                    "schema_version": self._manifest["schema_version"],
                    "architectures": list(self._manifest["architectures"]),
                    "user_groups": list(self._manifest["user_groups"]),
                    "shards": [s.sha256 for s in self._shards],
                },
                sort_keys=True,
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def verify(self) -> None:
        """Read every shard once, raising what a column read would."""
        for shard in self._shards:
            self._read_shard(shard)

    # ---- column access -------------------------------------------------

    def _read_shard(self, shard: ShardInfo) -> Dict[str, np.ndarray]:
        """One shard's columns: the one reader of shard bytes.

        The file must hash to the manifest's SHA-256 before it is
        mapped, every member must map, and each column must hold the
        manifest's row count; ``ValueError`` naming the shard if not.
        The writer never rewrites a listed shard in place, so the
        mapped bytes are the hashed ones.
        """
        path = self._path / shard.file
        actual = _sha256_file(path)
        if actual != shard.sha256:
            raise ValueError(
                f"{path}: content digest mismatch "
                f"(manifest {shard.sha256}, actual {actual})"
            )
        try:
            columns = _mapped_members(path)
        except (zipfile.BadZipFile, ValueError) as error:
            raise ValueError(f"{path}: unreadable shard ({error})") from None
        for name, column in columns.items():
            if column.shape[0] != shard.rows:
                raise ValueError(
                    f"{path}: column {name!r} has "
                    f"{column.shape[0]} rows, manifest says {shard.rows}"
                )
        return columns

    def column(self, name: str) -> np.ndarray:
        """One column over the whole store (cached after first touch).
        Each shard is read once; a column takes its members out of the
        reads, so no shard mapping outlives its column."""
        if name not in _ALL_COLUMNS:
            raise KeyError(f"unknown column: {name!r}")
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        if self._shard_members is None:
            self._shard_members = [self._read_shard(shard) for shard in self._shards]
        parts = [members.pop(name) for members in self._shard_members]
        if not parts:
            column = np.empty(0, dtype=np.int64)
        elif len(parts) == 1:
            column = parts[0]
        else:
            column = np.concatenate(parts)
        self._columns[name] = column
        return column

    def columns(self, names: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Several columns at once, as a name -> array mapping."""
        if names is None:
            names = _ALL_COLUMNS
        return {name: self.column(name) for name in names}

    # ---- population / record views --------------------------------------

    def feature_arrays(
        self, architecture: Optional[Architecture] = None
    ) -> FeatureArrays:
        """The vectorized analysis population, straight from the columns.

        No ``JobRecord`` or ``WorkloadFeatures`` objects are built; the
        columns (optionally filtered to one architecture) feed
        :meth:`FeatureArrays.from_columnar` directly.  The name column
        rides along so individual rows can be materialized lazily via
        :meth:`FeatureArrays.view` / :meth:`FeatureArrays.iter_views`.
        """
        needed = (
            "architecture",
            "num_cnodes",
            "batch_size",
            NAME_COLUMN,
        ) + FLOAT_COLUMNS
        columns = self.columns(needed)
        if architecture is not None:
            store_code = self.architectures.index(architecture)
            mask = columns["architecture"] == store_code
            columns = {name: col[mask] for name, col in columns.items()}
        return FeatureArrays.from_columnar(
            columns, architectures=self.architectures
        )

    def iter_views(self) -> Iterator[JobView]:
        """Stream the store as lazy :class:`JobView` rows, in order.

        The columns-first counterpart of :meth:`iter_records`: schema
        invariants are enforced once, vectorized, by
        :meth:`FeatureArrays.from_columnar`, and each row is a thin
        view over the shared columns instead of a validated record --
        about two orders of magnitude cheaper per job, which is what
        makes million-job scheduling replays practical.
        """
        yield from self._rows(
            self.feature_arrays(),
            self.columns(("job_id", "submit_day", "user_group")),
        )

    def iter_records(self) -> Iterator[JobRecord]:
        """Decode the store back into validated job records, in order.

        The lossless inverse of :func:`write_columnar`: every field --
        including the dictionary-encoded architecture and user-group
        labels -- round-trips exactly.  Each shard is decoded through
        :meth:`FeatureArrays.from_columnar` and its row views, one shard
        in memory at a time.
        """
        for shard in self._shards:
            columns = self._read_shard(shard)
            arrays = FeatureArrays.from_columnar(
                columns, architectures=self.architectures
            )
            for row in self._rows(arrays, columns):
                yield JobRecord(
                    job_id=row.job_id,
                    features=row.features.materialize(),
                    submit_day=row.submit_day,
                    user_group=row.user_group,
                )

    def _rows(
        self, arrays: FeatureArrays, columns: Dict[str, np.ndarray]
    ) -> Iterator[JobView]:
        """A :class:`JobView` per row of ``arrays``, with the scheduling
        metadata from the same rows of ``columns``."""
        job_ids = columns["job_id"]
        submit_days = columns["submit_day"]
        group_codes = columns["user_group"]
        groups = self.user_groups
        for i, view in enumerate(arrays.iter_views()):
            yield JobView(
                job_id=int(job_ids[i]),
                features=view,
                submit_day=int(submit_days[i]),
                user_group=groups[int(group_codes[i])],
            )


def jsonl_to_columnar(
    jsonl_path: Union[str, Path],
    store_path: Union[str, Path],
    shard_rows: int = DEFAULT_SHARD_ROWS,
) -> int:
    """Convert a JSONL trace into a columnar store; returns the count.

    Streams through :func:`repro.trace.serialization.iter_trace`, so
    memory stays bounded by one shard regardless of trace size.
    """
    return write_columnar(
        iter_trace(jsonl_path), store_path, shard_rows=shard_rows
    )


def columnar_to_jsonl(
    store_path: Union[str, Path], jsonl_path: Union[str, Path]
) -> int:
    """Convert a columnar store back to a JSONL trace; returns the count.

    The write inherits :func:`save_trace`'s atomicity (tmp + rename).
    """
    store = ColumnarTrace.open(store_path)
    return save_trace(store.iter_records(), jsonl_path)
