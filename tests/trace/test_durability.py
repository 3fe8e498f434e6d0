"""Crash- and I/O-fault durability of trace persistence.

``save_trace`` must be atomic: a crash, a poisoned iterator or an I/O
error mid-write leaves any pre-existing trace byte-identical and no
``.tmp`` sibling behind.  The columnar store's shard and manifest writes
share ``save_trace``'s atomic commit (``atomic_write``) and are pinned
the same way, with ENOSPC at write and EIO at fsync and at rename
injected into each.  A rewrite of a store is all or nothing: after a
fault at any shard or at the manifest, the old store still opens,
verifies and reads back its own jobs.  A truncated final line -- what
a writer killed mid-line leaves -- raises like any other malformed
line.
"""

import errno
import json
import os
from pathlib import Path

import pytest

from repro.trace import ClusterTraceGenerator, TraceConfig
from repro.trace.columnar import (
    MANIFEST_NAME,
    ColumnarTrace,
    write_columnar,
    write_rows,
)
from repro.trace.serialization import job_to_dict, load_trace, save_trace

#: The first shard a writer opens in an empty directory.  A rewrite
#: opens its shards under names the old manifest does not list.
FIRST_SHARD = "shard-00000.npz"

class TestAtomicSave:
    def test_failed_save_preserves_existing_trace(
        self, tmp_path, small_trace
    ):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace[:5], path)
        before = path.read_bytes()

        def poisoned():
            yield small_trace[5]
            raise RuntimeError("generator died mid-save")

        with pytest.raises(RuntimeError, match="mid-save"):
            save_trace(poisoned(), path)
        assert path.read_bytes() == before
        assert load_trace(path) == list(small_trace[:5])

    def test_failed_save_cleans_up_tmp_sibling(self, tmp_path, small_trace):
        path = tmp_path / "trace.jsonl"

        def poisoned():
            yield small_trace[0]
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            save_trace(poisoned(), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_successful_save_leaves_no_tmp_sibling(
        self, tmp_path, small_trace
    ):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace[:3], path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.jsonl"]


class _TornWriter:
    """A file handle whose first write lands half its bytes, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "disk full mid-write")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def _tmp_matcher(target):
    """A test for the ``.tmp`` sibling a fault hits.

    ``target`` names the old file that must survive.  The fault hits the
    write that would replace it: ``target``'s own ``.tmp`` for a JSONL
    trace or the manifest, and for a shard the first ``.npz.tmp`` the
    rewrite opens, whatever fresh name the writer gave it.
    """
    hit = []

    def matches(name):
        if not hit and (
            name == target + ".tmp"
            or (target.endswith(".npz") and name.endswith(".npz.tmp"))
        ):
            hit.append(name)
        return name in hit

    return matches


def _assert_old_store_intact(store, target, before, old_jobs):
    """The old store survived a failed rewrite whole."""
    assert (store / target).read_bytes() == before
    assert sorted(p.name for p in store.glob("*.tmp")) == []
    opened = ColumnarTrace.open(store)
    opened.verify()
    assert list(opened.iter_records()) == list(old_jobs)
    listed = {shard.file for shard in opened.shards}
    assert {p.name for p in store.glob("shard-*.npz")} == listed


class TestAtomicColumnarWrite:
    @pytest.mark.parametrize("target", [FIRST_SHARD, MANIFEST_NAME])
    def test_failed_write_preserves_existing_file(
        self, tmp_path, small_trace, monkeypatch, target
    ):
        store = tmp_path / "trace.columnar"
        write_columnar(small_trace[:50], store)
        before = (store / target).read_bytes()
        real_open = Path.open
        matches = _tmp_matcher(target)

        def open_torn(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            if matches(self.name):
                return _TornWriter(handle)
            return handle

        monkeypatch.setattr(Path, "open", open_torn)
        with pytest.raises(OSError, match="mid-write"):
            write_columnar(small_trace[50:120], store)
        monkeypatch.undo()
        _assert_old_store_intact(store, target, before, small_trace[:50])


def _inject(monkeypatch, fault, target):
    """Make the atomic write that would replace ``target`` fail with
    ``fault``.

    The write goes through a ``.tmp`` sibling (see :func:`_tmp_matcher`);
    the fault hits only that sibling's write, fsync or rename, so every
    other file the writer touches behaves normally.
    """
    matches = _tmp_matcher(target)
    real_open, real_fsync, real_replace = Path.open, os.fsync, os.replace
    tmp_fds = set()

    def tracked_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        if not matches(self.name):
            return handle
        if fault == "enospc-at-write":
            return _TornWriter(handle)
        tmp_fds.add(handle.fileno())
        return handle

    def failing_fsync(fd):
        if fd in tmp_fds:
            raise OSError(errno.EIO, "injected EIO at fsync")
        return real_fsync(fd)

    def failing_replace(src, dst, *args, **kwargs):
        if fault == "eio-at-replace" and matches(Path(src).name):
            raise OSError(errno.EIO, "injected EIO at rename")
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(Path, "open", tracked_open)
    if fault == "eio-at-fsync":
        monkeypatch.setattr(os, "fsync", failing_fsync)
    monkeypatch.setattr(os, "replace", failing_replace)


FAULTS = ["enospc-at-write", "eio-at-fsync", "eio-at-replace"]


class TestIoFaults:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_jsonl_save(self, tmp_path, small_trace, monkeypatch, fault):
        path = tmp_path / "trace.jsonl"
        save_trace(small_trace[:5], path)
        before = path.read_bytes()
        _inject(monkeypatch, fault, path.name)
        with pytest.raises(OSError, match="injected|mid-write"):
            save_trace(small_trace[5:20], path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.jsonl"]

    # ENOSPC at write into a shard or the manifest is
    # TestAtomicColumnarWrite's torn write.
    @pytest.mark.parametrize("target", [FIRST_SHARD, MANIFEST_NAME])
    @pytest.mark.parametrize("fault", ["eio-at-fsync", "eio-at-replace"])
    def test_columnar_write(
        self, tmp_path, small_trace, monkeypatch, fault, target
    ):
        store = tmp_path / "trace.columnar"
        write_columnar(small_trace[:50], store)
        before = (store / target).read_bytes()
        _inject(monkeypatch, fault, target)
        with pytest.raises(OSError, match="injected|mid-write"):
            write_columnar(small_trace[50:120], store)
        monkeypatch.undo()
        _assert_old_store_intact(store, target, before, small_trace[:50])


class TestColumnarRewrite:
    """A rewrite commits whole or leaves the old store as it was."""

    # A failed commit must not leave the old manifest in front of
    # shards it does not describe: 50 new jobs would read back under it
    # unnoticed, and 70 would raise a row-count mismatch.
    @pytest.mark.parametrize("new_jobs", [50, 70])
    @pytest.mark.parametrize("shard_rows", [20, 1000])
    def test_failed_manifest_commit_keeps_the_old_store(
        self, tmp_path, small_trace, monkeypatch, new_jobs, shard_rows
    ):
        store = tmp_path / "trace.columnar"
        write_columnar(small_trace[:50], store, shard_rows=shard_rows)
        before = (store / MANIFEST_NAME).read_bytes()
        _inject(monkeypatch, "eio-at-replace", MANIFEST_NAME)
        with pytest.raises(OSError, match="injected"):
            write_columnar(
                small_trace[100 : 100 + new_jobs], store, shard_rows=shard_rows
            )
        monkeypatch.undo()
        _assert_old_store_intact(store, MANIFEST_NAME, before, small_trace[:50])

    def test_failed_validation_keeps_the_old_store(self, tmp_path, small_trace):
        store = tmp_path / "trace.columnar"
        write_columnar(small_trace[:50], store, shard_rows=20)
        before = (store / MANIFEST_NAME).read_bytes()
        rows = list(ClusterTraceGenerator(TraceConfig(num_jobs=30)).rows())
        # A negative FLOP count in the second shard fails its checks.
        rows[25] = rows[25][:7] + (-1.0,) + rows[25][8:]
        with pytest.raises(ValueError, match="flop_count"):
            write_rows(rows, store, shard_rows=20)
        _assert_old_store_intact(store, MANIFEST_NAME, before, small_trace[:50])

    @pytest.mark.parametrize("shard_rows", [20, 1000])
    def test_rewrites_commit_and_clean_up(self, tmp_path, small_trace, shard_rows):
        store = tmp_path / "trace.columnar"
        for jobs in (small_trace[:50], small_trace[50:120], small_trace[:70]):
            write_columnar(jobs, store, shard_rows=shard_rows)
            opened = ColumnarTrace.open(store)
            opened.verify()
            assert list(opened.iter_records()) == list(jobs)
            listed = {shard.file for shard in opened.shards}
            assert {p.name for p in store.iterdir()} == listed | {MANIFEST_NAME}

    def test_naming_is_deterministic(self, tmp_path, small_trace):
        first, second, rewritten = (
            tmp_path / name for name in ("first", "second", "rewritten")
        )
        for store in (first, second):
            write_columnar(small_trace[:70], store, shard_rows=20)
        assert (first / MANIFEST_NAME).read_bytes() == (
            second / MANIFEST_NAME
        ).read_bytes()
        assert ColumnarTrace.open(first).shards[0].file == FIRST_SHARD
        write_columnar(small_trace[100:150], rewritten, shard_rows=20)
        old = {s.file for s in ColumnarTrace.open(rewritten).shards}
        write_columnar(small_trace[:70], rewritten, shard_rows=20)
        new = {s.file for s in ColumnarTrace.open(rewritten).shards}
        assert not old & new
        # The digest hashes shard contents, not their names.
        assert (
            ColumnarTrace.open(rewritten).digest()
            == ColumnarTrace.open(first).digest()
        )


class TestTornTail:
    def torn_trace(self, tmp_path, small_trace):
        """A trace whose final line is truncated mid-record."""
        path = tmp_path / "torn.jsonl"
        save_trace(small_trace[:4], path)
        torn = json.dumps(job_to_dict(small_trace[4]))[:37]
        with path.open("a", encoding="utf-8") as handle:
            handle.write(torn)
        return path

    def test_torn_tail_raises_by_default(self, tmp_path, small_trace):
        path = self.torn_trace(tmp_path, small_trace)
        with pytest.raises(ValueError, match=":5:.*invalid JSON"):
            load_trace(path)

    def test_mid_file_corruption_still_raises(self, tmp_path, small_trace):
        path = self.torn_trace(tmp_path, small_trace)
        with path.open("a", encoding="utf-8") as handle:
            for job in small_trace[5:7]:  # the tear is no longer the tail
                handle.write(json.dumps(job_to_dict(job)) + "\n")
        with pytest.raises(ValueError, match=":5:"):
            load_trace(path)
