"""Crash- and I/O-fault durability of trace persistence.

``save_trace`` must be atomic: a crash, a poisoned iterator or an I/O
error mid-write leaves any pre-existing trace byte-identical and no
``.tmp`` sibling behind.  The columnar store's shard and manifest writes
share ``save_trace``'s atomic commit (``atomic_write``) and are pinned
the same way, with ENOSPC at write and EIO at fsync and at rename
injected into each.  A truncated final line -- what a writer killed
mid-line leaves -- raises like any other malformed line.
"""

import errno
import json
import os
from pathlib import Path

import pytest

from repro.trace.columnar import MANIFEST_NAME, write_columnar
from repro.trace.serialization import job_to_dict, load_trace, save_trace

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


class TestAtomicColumnarWrite:
    @pytest.mark.parametrize("target", ["shard-00000.npz", MANIFEST_NAME])
    def test_failed_write_preserves_existing_file(
        self, tmp_path, small_trace, monkeypatch, target
    ):
        store = tmp_path / "trace.columnar"
        write_columnar(small_trace[:50], store)
        before = (store / target).read_bytes()
        real_open = Path.open

        def open_torn(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            if self.name == target + ".tmp":
                return _TornWriter(handle)
            return handle

        monkeypatch.setattr(Path, "open", open_torn)
        with pytest.raises(OSError, match="mid-write"):
            write_columnar(small_trace[50:120], store)
        monkeypatch.undo()
        assert (store / target).read_bytes() == before
        assert sorted(p.name for p in store.glob("*.tmp")) == []


def _inject(monkeypatch, fault, target):
    """Make the atomic write of ``target`` fail with ``fault``.

    The write goes through a ``<target>.tmp`` sibling; the fault hits
    only that sibling's write, fsync or rename, so every other file the
    writer touches behaves normally.
    """
    tmp_name = target + ".tmp"
    real_open, real_fsync, real_replace = Path.open, os.fsync, os.replace
    tmp_fds = set()

    def tracked_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        if self.name != tmp_name:
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
        if fault == "eio-at-replace" and Path(src).name == tmp_name:
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
    @pytest.mark.parametrize("target", ["shard-00000.npz", MANIFEST_NAME])
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
        assert (store / target).read_bytes() == before
        assert sorted(p.name for p in store.glob("*.tmp")) == []


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
