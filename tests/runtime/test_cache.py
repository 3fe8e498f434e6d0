"""The on-disk content-addressed result cache."""

import errno
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.context import TRACE_JOBS_ENV_VAR, clear_caches
from repro.analysis.result import ExperimentResult, format_value
from repro.obs import MemorySink, get_obs, reset_obs
from repro.runtime import run_suite
from repro.runtime.cache import (
    CACHE_DIR_ENV_VAR,
    ResultCache,
    default_cache_dir,
    normalize_result,
    normalize_value,
)


def sample_result():
    return ExperimentResult(
        experiment="figX",
        title="Toy",
        rows=[{"a": 1, "b": 0.5, "ok": True}, {"a": 2, "b": 1.25, "ok": False}],
        notes=["first note"],
    )


KEY = "0" * 64


class TestNormalization:
    def test_native_types_pass_through(self):
        for value in (1, 2.5, "x", True, None):
            assert normalize_value(value) == value
            assert type(normalize_value(value)) is type(value)

    def test_numpy_scalars_become_native(self):
        assert type(normalize_value(np.float64(0.5))) is float
        assert type(normalize_value(np.int64(3))) is int
        assert type(normalize_value(np.bool_(True))) is bool

    def test_numpy_bool_renders_like_native_bool(self):
        # np.bool_ is not a bool subclass: unnormalized it would render
        # "True" where the table renderer writes "yes".
        assert format_value(normalize_value(np.bool_(True))) == "yes"

    def test_other_types_fall_back_to_str(self):
        assert normalize_value(complex(1, 2)) == str(complex(1, 2))

    def test_normalize_result_is_json_safe(self):
        result = ExperimentResult(
            experiment="figX",
            title="Toy",
            rows=[{"n": np.int64(3), "ok": np.bool_(True)}],
        )
        json.dumps(normalize_result(result).rows)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        loaded = cache.load(KEY)
        assert loaded == sample_result()

    def test_round_trip_preserves_float_bits(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = 0.1 + 0.2  # not exactly representable shortest-repr
        cache.store(
            KEY,
            ExperimentResult("e", "t", rows=[{"v": value}]),
        )
        assert cache.load(KEY).rows[0]["v"] == value

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert ResultCache(tmp_path).load(KEY) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for(KEY).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(KEY).write_text("{ not json")
        assert cache.load(KEY) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        path = cache.path_for(KEY)
        path.write_text(path.read_text()[: 20])
        assert cache.load(KEY) is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        # An entry renamed (or copied) to the wrong key must not serve.
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        other = "1" * 64
        cache.path_for(KEY).rename(cache.path_for(other))
        assert cache.load(other) is None

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        payload = json.loads(cache.path_for(KEY).read_text())
        payload["format"] = -1
        cache.path_for(KEY).write_text(json.dumps(payload))
        assert cache.load(KEY) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        cache.store("1" * 64, sample_result())
        assert cache.clear() == 2
        assert cache.load(KEY) is None
        assert cache.clear() == 0

    def test_store_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        updated = ExperimentResult("figX", "Toy v2", rows=[])
        cache.store(KEY, updated)
        assert cache.load(KEY).title == "Toy v2"

    def test_discard_removes_one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        other = "1" * 64
        cache.store(other, sample_result())
        assert cache.discard(KEY) is True
        assert cache.load(KEY) is None
        assert cache.load(other) is not None

    def test_discard_missing_entry_is_false(self, tmp_path):
        assert ResultCache(tmp_path).discard(KEY) is False


class TestTmpFileHygiene:
    """A process dying between temp-file creation and ``os.replace``
    leaves ``*.tmp`` orphans; they must not accumulate forever."""

    @staticmethod
    def _orphan(tmp_path, name="deadbeef.tmp", age_s=0.0):
        orphan = tmp_path / name
        orphan.write_text("{ partial entry")
        if age_s:
            import os as os_module
            import time as time_module

            stale = time_module.time() - age_s
            os_module.utime(orphan, (stale, stale))
        return orphan

    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, sample_result())
        orphan = self._orphan(tmp_path)
        assert cache.clear() == 2  # the entry and the orphan
        assert not orphan.exists()
        assert list(tmp_path.iterdir()) == []
        assert cache.clear() == 0

    def test_store_sweeps_stale_orphans(self, tmp_path):
        cache = ResultCache(tmp_path)
        orphan = self._orphan(tmp_path, age_s=7200.0)
        cache.store(KEY, sample_result())
        assert not orphan.exists()
        assert cache.load(KEY) == sample_result()

    def test_store_spares_fresh_tmp_files(self, tmp_path):
        # A young .tmp may be another live writer's in-flight entry.
        cache = ResultCache(tmp_path)
        fresh = self._orphan(tmp_path)
        cache.store(KEY, sample_result())
        assert fresh.exists()

    def test_sweep_tmp_counts_and_ignores_missing_root(self, tmp_path):
        assert ResultCache(tmp_path / "nowhere").sweep_tmp() == 0
        cache = ResultCache(tmp_path)
        self._orphan(tmp_path, "one.tmp")
        self._orphan(tmp_path, "two.tmp")
        assert cache.sweep_tmp() == 2


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "cc"))
        assert default_cache_dir() == tmp_path / "cc"

    def test_default_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert default_cache_dir().name == "pai-repro"


def full_disk(monkeypatch, root):
    """Every write to a cache temporary fails with ENOSPC."""
    real = tempfile.NamedTemporaryFile

    def opened(*args, **kwargs):
        handle = real(*args, **kwargs)

        def write(data):
            raise OSError(errno.ENOSPC, "No space left on device")

        handle.write = write
        return handle

    monkeypatch.setattr(tempfile, "NamedTemporaryFile", opened)


def failing_rename(monkeypatch, root):
    """Renaming a temporary into ``root`` fails with EIO."""
    real = os.replace

    def replace(src, dst, *args, **kwargs):
        if Path(dst).parent == Path(root):
            raise OSError(errno.EIO, "Input/output error")
        return real(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)


STORE_FAULTS = [full_disk, failing_rename]


@pytest.mark.parametrize(
    "fault", STORE_FAULTS, ids=["enospc-at-write", "eio-at-replace"]
)
class TestStoreFaults:
    """A store the disk refuses loses the entry, never the result."""

    def test_store_returns_none_and_leaves_nothing(
        self, tmp_path, monkeypatch, fault
    ):
        cache = ResultCache(tmp_path)
        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        try:
            fault(monkeypatch, tmp_path)
            assert cache.store(KEY, sample_result()) is None
        finally:
            reset_obs()
        assert list(tmp_path.iterdir()) == []
        (event,) = [e for e in sink.events if e["kind"] == "cache.store_failed"]
        assert event["level"] == "warning"
        assert event["key"] == KEY
        assert "Errno" in event["error"]
        monkeypatch.undo()
        assert cache.load(KEY) is None
        assert cache.store(KEY, sample_result()) == cache.path_for(KEY)

    def test_run_suite_returns_every_outcome(
        self, tmp_path, monkeypatch, fault
    ):
        monkeypatch.setenv(TRACE_JOBS_ENV_VAR, "1500")
        ids = ["table1", "table2"]
        try:
            expected = run_suite(ids, jobs=1, cache=None)
            fault(monkeypatch, tmp_path / "cache")
            cache = ResultCache(tmp_path / "cache")
            outcomes = run_suite(ids, jobs=1, cache=cache)
        finally:
            clear_caches()
        assert [o.experiment_id for o in outcomes] == ids
        assert all(o.ok for o in outcomes)
        assert [o.result for o in outcomes] == [o.result for o in expected]
        assert list((tmp_path / "cache").iterdir()) == []
