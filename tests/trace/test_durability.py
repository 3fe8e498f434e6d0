"""Crash-durability regressions for trace persistence.

These pin the two bugfixes: ``save_trace`` must be atomic (a crash or a
poisoned iterator mid-write leaves any pre-existing trace intact), and
``iter_trace(tolerate_torn_tail=True)`` must recover a trace whose
writer was killed mid-append -- and only that case; corruption anywhere
before the final line still raises.  The columnar store's shard and
manifest writes share ``save_trace``'s atomic commit and are pinned the
same way.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.trace.columnar import MANIFEST_NAME, write_columnar
from repro.trace.serialization import (
    append_trace,
    iter_trace,
    job_to_dict,
    load_trace,
    save_trace,
)

SRC = Path(__file__).resolve().parents[2] / "src"


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
        raise OSError("disk full mid-write")

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

    def test_torn_tail_skipped_when_tolerated(self, tmp_path, small_trace):
        path = self.torn_trace(tmp_path, small_trace)
        recovered = load_trace(path, tolerate_torn_tail=True)
        assert recovered == list(small_trace[:4])

    def test_mid_file_corruption_still_raises(self, tmp_path, small_trace):
        path = self.torn_trace(tmp_path, small_trace)
        append_trace(small_trace[5:7], path)  # tear is no longer the tail
        with pytest.raises(ValueError, match=":5:"):
            load_trace(path, tolerate_torn_tail=True)

    def test_recovered_trace_accepts_new_appends(self, tmp_path, small_trace):
        # The documented crash-recovery flow: tolerate the tail once,
        # rewrite atomically, resume appending.
        path = self.torn_trace(tmp_path, small_trace)
        recovered = load_trace(path, tolerate_torn_tail=True)
        save_trace(recovered, path)
        append_trace(small_trace[4:8], path)
        assert load_trace(path) == list(small_trace[:8])

    def test_writer_killed_mid_append_recovers(self, tmp_path, small_trace):
        """Kill a real writer subprocess mid-line, then reload."""
        path = tmp_path / "killed.jsonl"
        save_trace(small_trace[:6], path)
        script = textwrap.dedent(
            """
            import json, sys
            from repro.trace.serialization import (
                iter_trace, job_to_dict,
            )
            record = next(iter_trace(sys.argv[1]))
            line = json.dumps(job_to_dict(record), sort_keys=True)
            with open(sys.argv[1], "a", encoding="utf-8") as handle:
                # Half a record, flushed to disk: exactly the bytes a
                # crash inside append_trace leaves behind.
                handle.write(line[: len(line) // 2])
                handle.flush()
                print("torn", flush=True)
                while True:
                    pass
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        writer = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert writer.stdout.readline().strip() == "torn"
            writer.send_signal(signal.SIGKILL)
            writer.wait(timeout=30)
        finally:
            if writer.poll() is None:
                writer.kill()
                writer.wait(timeout=30)
        assert writer.returncode == -signal.SIGKILL
        with pytest.raises(ValueError, match="invalid JSON"):
            load_trace(path)
        recovered = load_trace(path, tolerate_torn_tail=True)
        assert recovered == list(small_trace[:6])
        # And a restarted writer resumes cleanly after rewriting.
        save_trace(recovered, path)
        append_trace(small_trace[6:9], path)
        assert load_trace(path) == list(small_trace[:9])

    def test_torn_tail_emits_observability_warning(
        self, tmp_path, small_trace
    ):
        from repro.obs import MemorySink, get_obs, reset_obs

        path = self.torn_trace(tmp_path, small_trace)
        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        try:
            list(iter_trace(path, tolerate_torn_tail=True))
        finally:
            reset_obs()
        (event,) = sink.of_kind("trace.torn_tail")
        assert event["line"] == 5
        assert event["level"] == "warning"
