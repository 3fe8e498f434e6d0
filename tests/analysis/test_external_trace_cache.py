"""Regression: rewriting the external trace mid-process must be seen.

The external-trace caches used to key on the *path* alone, so a
process that re-generated the trace at :data:`PAI_REPRO_TRACE_PATH`
kept serving the old records -- while
:func:`~repro.analysis.context.trace_source_identity` (re-probed every
call) reported the new digest.  A result-cache fingerprint could then
pair a fresh digest with stale data.  The caches now key on the
digest ``trace_source_identity()`` reports, probed fresh on every
lookup, with **no** ``clear_caches()`` call required in between.
"""

import hashlib
import multiprocessing
import os
import re

import pytest

from repro.analysis import context
from repro.analysis.cli import main
from repro.core.architectures import Architecture
from repro.obs import reset_obs
from repro.trace import columnar
from repro.trace.columnar import MANIFEST_NAME, ColumnarTrace, write_columnar
from repro.trace.generator import TraceConfig, generate_trace
from repro.trace.serialization import save_trace


@pytest.fixture(autouse=True)
def fresh_caches():
    context.clear_caches()
    yield
    context.clear_caches()


def _distinct_traces():
    """Two traces with different contents and record counts."""
    first = generate_trace(config=TraceConfig(num_jobs=60, seed=1))
    second = generate_trace(config=TraceConfig(num_jobs=45, seed=2))
    assert first != second
    return first, second


def _backdate(path):
    """Force a distinct mtime_ns even on coarse filesystem clocks."""
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 1_000_000))


class TestJsonlRewrite:
    def test_default_trace_sees_the_rewrite(self, tmp_path, monkeypatch):
        first, second = _distinct_traces()
        path = tmp_path / "trace.jsonl"
        save_trace(first, path)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(path))

        assert list(context.default_trace()) == first
        # Rewrite in place -- same path, new contents, no cache reset.
        save_trace(second, path)
        _backdate(path)
        assert list(context.default_trace()) == second

    def test_identity_and_records_stay_paired(self, tmp_path, monkeypatch):
        """The fingerprint digest and the served records must always
        describe the same bytes."""
        first, second = _distinct_traces()
        path = tmp_path / "trace.jsonl"
        save_trace(first, path)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(path))

        before = context.trace_source_identity()
        assert list(context.default_trace()) == first
        save_trace(second, path)
        _backdate(path)
        after = context.trace_source_identity()
        assert after != before
        assert list(context.default_trace()) == second


class TestColumnarRewrite:
    def test_default_trace_sees_the_rewrite(self, tmp_path, monkeypatch):
        first, second = _distinct_traces()
        store = tmp_path / "trace.columnar"
        write_columnar(first, store)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(store))

        assert list(context.default_trace()) == first
        write_columnar(second, store)
        assert list(context.default_trace()) == second

    def test_feature_arrays_see_the_rewrite(self, tmp_path, monkeypatch):
        first, second = _distinct_traces()
        store = tmp_path / "trace.columnar"
        write_columnar(first, store)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(store))

        arrays = context.trace_feature_arrays()
        assert len(arrays) == len(first)
        write_columnar(second, store)
        arrays = context.trace_feature_arrays()
        assert len(arrays) == len(second)
        # The lazy views decode the *new* store's rows.
        assert [v.materialize() for v in arrays.iter_views()] == [
            job.features for job in second
        ]

    def test_identity_tracks_the_manifest(self, tmp_path, monkeypatch):
        first, second = _distinct_traces()
        store = tmp_path / "trace.columnar"
        write_columnar(first, store)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(store))

        before = context.trace_source_identity()
        write_columnar(second, store)
        after = context.trace_source_identity()
        assert before["format"] == after["format"] == "columnar"
        assert before["digest"] != after["digest"]


class TestIdentityPins:
    """The identity keeps the values that result-cache entries computed
    under an external trace were keyed on, so they stay hits."""

    def test_columnar_store(self, tmp_path, monkeypatch):
        store = tmp_path / "trace.columnar"
        write_columnar(_distinct_traces()[0], store)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(store))

        assert context.trace_source_identity() == {
            "format": "columnar",
            "digest": ColumnarTrace.open(store).digest(),
        }

    def test_jsonl_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        save_trace(_distinct_traces()[0], path)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(path))

        assert context.trace_source_identity() == {
            "format": "jsonl",
            "digest": hashlib.sha256(path.read_bytes()).hexdigest(),
        }


class TestBrokenStore:
    """A directory is a columnar store however broken it is: every
    entry point raises ``ColumnarTrace.open``'s error naming the
    manifest.  Both cases used to be read as a JSONL file and die with
    ``IsADirectoryError``."""

    @pytest.mark.parametrize(
        "manifest_text, error",
        [("not json", ValueError), (None, FileNotFoundError)],
        ids=["manifest-not-json", "empty-directory"],
    )
    def test_every_entry_point_names_the_manifest(
        self, tmp_path, monkeypatch, manifest_text, error
    ):
        store = tmp_path / "trace.columnar"
        if manifest_text is None:
            store.mkdir()
        else:
            write_columnar(_distinct_traces()[0], store)
            (store / MANIFEST_NAME).write_text(manifest_text, encoding="utf-8")
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(store))

        for entry_point in (
            context.default_trace,
            context.trace_feature_arrays,
            context.trace_source_identity,
        ):
            with pytest.raises(
                error, match=re.escape(str(store / MANIFEST_NAME))
            ):
                entry_point()


def _count_hashes(monkeypatch, log):
    """Append ``<pid> <shard>`` to ``log`` for every shard hash; forked
    workers inherit the spy and append to the same file."""
    sha256_file = columnar._sha256_file

    def spy(path):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {path.name}\n")
        return sha256_file(path)

    monkeypatch.setattr(columnar, "_sha256_file", spy)


def _hashes(log):
    return [tuple(line.split()) for line in log.read_text().splitlines()]


class TestOneReadPerProcess:
    """A process reads (and hashes) each shard of the external store
    once, however many of its caches it fills.  The record cache used to
    decode through ``iter_records()``, a second read of every shard
    beside the one the feature arrays made."""

    def test_records_and_feature_arrays_share_one_read(
        self, tmp_path, monkeypatch
    ):
        jobs = generate_trace(config=TraceConfig(num_jobs=60, seed=1))
        store = tmp_path / "trace.columnar"
        write_columnar(jobs, store, shard_rows=25)
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(store))
        log = tmp_path / "hashes"
        log.touch()
        _count_hashes(monkeypatch, log)

        assert list(context.default_trace()) == jobs
        context.trace_feature_arrays()
        context.trace_feature_arrays(architecture=Architecture.PS_WORKER)
        pid = str(os.getpid())
        assert sorted(_hashes(log)) == [
            (pid, f"shard-0000{i}.npz") for i in range(3)
        ]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the suite pool needs the fork start method",
    )
    def test_a_pooled_report_hashes_the_store_twice(
        self, tmp_path, monkeypatch
    ):
        # The CLI's up-front check, then one read in the worker that
        # runs the default trace's readers.  It used to be four reads in
        # three processes: the check, the parent's records before the
        # fork, and each worker's feature arrays.
        store = tmp_path / "trace.columnar"
        write_columnar(
            generate_trace(config=TraceConfig(num_jobs=1500)), store
        )
        monkeypatch.setenv(context.TRACE_PATH_ENV_VAR, str(store))
        log = tmp_path / "hashes"
        log.touch()
        _count_hashes(monkeypatch, log)
        try:
            status = main(
                ["report", "--no-cache", "-q", "-j", "2",
                 "-o", str(tmp_path / "report.md")]
            )
        finally:
            reset_obs()
        assert status == 0
        hashes = _hashes(log)
        assert [shard for _, shard in hashes] == ["shard-00000.npz"] * 2
        assert hashes[0][0] == str(os.getpid())
        assert hashes[1][0] != str(os.getpid())
