"""The sharded columnar trace store and its JSONL interop."""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.core.architectures import Architecture
from repro.core.features import FEATURE_FIELDS, WorkloadFeatures
from repro.core.population import FeatureArrays
from repro.trace import JobRecord, generate_trace
from repro.trace.columnar import (
    COLUMNAR_FORMAT,
    MANIFEST_NAME,
    ColumnarTrace,
    columnar_to_jsonl,
    is_columnar_store,
    jsonl_to_columnar,
    write_columnar,
)
from repro.trace.serialization import save_trace

ARCH_CODES = list(Architecture)


@pytest.fixture(scope="module")
def store(tmp_path_factory, small_trace):
    path = tmp_path_factory.mktemp("columnar") / "trace.columnar"
    write_columnar(small_trace, path, shard_rows=128)
    return path


class TestStoreLayout:
    def test_is_columnar_store(self, store, tmp_path):
        # The path decides the format: a directory is a store path even
        # without a manifest, and open() is what finds it broken.
        assert is_columnar_store(store)
        assert not is_columnar_store(store / MANIFEST_NAME)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert is_columnar_store(empty)
        with pytest.raises(
            FileNotFoundError, match=re.escape(str(empty / MANIFEST_NAME))
        ):
            ColumnarTrace.open(empty)

    def test_manifest_contents(self, store, small_trace):
        manifest = json.loads(
            (store / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["format"] == COLUMNAR_FORMAT
        assert manifest["jobs"] == len(small_trace)
        assert sum(s["rows"] for s in manifest["shards"]) == len(small_trace)
        assert len(manifest["shards"]) == -(-len(small_trace) // 128)
        for shard in manifest["shards"]:
            assert len(shard["sha256"]) == 64

    def test_open_verifies_digests(self, store):
        ColumnarTrace.open(store, verify=True)

    def test_corruption_is_detected(self, store, tmp_path, small_trace):
        import shutil

        broken = tmp_path / "broken.columnar"
        shutil.copytree(store, broken)
        shard = sorted(broken.glob("shard-*.npz"))[0]
        raw = shard.read_bytes()
        shard.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
        with pytest.raises(ValueError, match="digest mismatch"):
            ColumnarTrace.open(broken, verify=True)

    def test_open_rejects_non_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ColumnarTrace.open(tmp_path / "nope")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw[: len(raw) // 2],
            lambda raw: raw[:-10],
            lambda raw: b"",
            lambda raw: b"\x5a" * len(raw),
        ],
        ids=["halved", "cut-by-ten-bytes", "emptied", "garbage"],
    )
    def test_unreadable_shard_is_named(self, store, tmp_path, edit):
        # Each used to raise zipfile.BadZipFile, naming no file.
        import shutil

        broken = tmp_path / "broken.columnar"
        shutil.copytree(store, broken)
        shard = sorted(broken.glob("shard-*.npz"))[1]
        shard.write_bytes(edit(shard.read_bytes()))
        for read in (
            lambda opened: opened.feature_arrays(),
            lambda opened: list(opened.iter_records()),
        ):
            with pytest.raises(ValueError, match=re.escape(str(shard))):
                read(ColumnarTrace.open(broken))

    def test_digest_identifies_contents(self, store, tmp_path, small_trace):
        other = tmp_path / "copy.columnar"
        write_columnar(small_trace, other, shard_rows=128)
        assert ColumnarTrace.open(store).digest() == (
            ColumnarTrace.open(other).digest()
        )
        shuffled = tmp_path / "different.columnar"
        write_columnar(list(small_trace)[::-1], shuffled, shard_rows=128)
        assert ColumnarTrace.open(store).digest() != (
            ColumnarTrace.open(shuffled).digest()
        )


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return manifest

    return edit


def _set(key, value):
    def edit(manifest):
        manifest[key] = value
        return manifest

    return edit


def _unknown_architecture(manifest):
    manifest["architectures"][0] = "Parameter-Server"
    return manifest


class TestManifestShape:
    @pytest.fixture(scope="class")
    def three_shards(self, tmp_path_factory, small_trace):
        path = tmp_path_factory.mktemp("manifest") / "fifty.columnar"
        write_columnar(small_trace[:50], path, shard_rows=17)
        return path

    @pytest.mark.parametrize(
        "edit",
        [
            _drop("shards"),
            _drop("user_groups"),
            _drop("jobs"),
            _set("shards", 5),
            lambda manifest: list(manifest),
            _unknown_architecture,
            _set("jobs", 49),
            lambda manifest: b"not json",
        ],
        ids=[
            "no-shards",
            "no-user_groups",
            "no-jobs",
            "shards-is-a-number",
            "a-list",
            "unknown-architecture",
            "jobs-short-of-the-rows",
            "not-json",
        ],
    )
    def test_open_rejects_a_misshapen_manifest(
        self, three_shards, tmp_path, edit
    ):
        # Each used to open with a bare KeyError, TypeError,
        # AttributeError or JSONDecodeError, or (49 jobs) open and
        # report the wrong length.  An edit returning bytes is written
        # as they are.
        import shutil

        copy = tmp_path / "edited.columnar"
        shutil.copytree(three_shards, copy)
        manifest_path = copy / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert len(manifest["shards"]) == 3
        edited = edit(manifest)
        if not isinstance(edited, bytes):
            edited = json.dumps(edited).encode("utf-8")
        manifest_path.write_bytes(edited)
        with pytest.raises(ValueError, match=re.escape(str(manifest_path))):
            ColumnarTrace.open(copy)

    def test_columns_read_each_shard_once(self, three_shards, monkeypatch):
        import repro.trace.columnar as columnar

        mapped = []
        original = columnar._mapped_members

        def counting(path):
            mapped.append(path.name)
            return original(path)

        monkeypatch.setattr(columnar, "_mapped_members", counting)
        store = ColumnarTrace.open(three_shards)
        assert len(list(store.iter_views())) == 50
        assert sorted(mapped) == [shard.file for shard in store.shards]


class TestRoundTrip:
    def test_records_round_trip_exactly(self, store, small_trace):
        assert list(ColumnarTrace.open(store).iter_records()) == list(
            small_trace
        )

    def test_jsonl_conversion_is_lossless(self, tmp_path, small_trace):
        jsonl = tmp_path / "trace.jsonl"
        save_trace(small_trace, jsonl)
        columnar = tmp_path / "trace.columnar"
        assert jsonl_to_columnar(jsonl, columnar, shard_rows=100) == len(
            small_trace
        )
        back = tmp_path / "back.jsonl"
        assert columnar_to_jsonl(columnar, back) == len(small_trace)
        assert back.read_bytes() == jsonl.read_bytes()

    def test_compressed_shard_falls_back_to_an_eager_load(
        self, store, tmp_path
    ):
        import shutil

        from repro.obs import MemorySink, get_obs, reset_obs

        copy = tmp_path / "compressed.columnar"
        shutil.copytree(store, copy)
        shard = sorted(copy.glob("shard-*.npz"))[1]
        with np.load(shard) as data:
            members = {name: data[name] for name in data.files}
        np.savez_compressed(shard, **members)
        mapped = ColumnarTrace.open(store)
        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        try:
            flops = ColumnarTrace.open(copy).column("flop_count")
        finally:
            reset_obs()
        fallbacks = sink.of_kind("trace.columnar.mmap_fallback")
        assert [event["path"] for event in fallbacks] == [str(shard)]
        assert np.array_equal(flops, mapped.column("flop_count"))
        eager = ColumnarTrace.open(copy)
        for name in ("job_id", "architecture", "num_cnodes", "name"):
            assert np.array_equal(eager.column(name), mapped.column(name))
        assert list(eager.iter_records()) == list(mapped.iter_records())

    def test_single_shard_column_is_memory_mapped(
        self, tmp_path, small_trace
    ):
        path = tmp_path / "one.columnar"
        write_columnar(small_trace, path)
        column = ColumnarTrace.open(path).column("flop_count")
        assert isinstance(column, np.memmap)


class TestFeatureArrays:
    def test_byte_identical_to_from_workloads(self, store, small_trace):
        from_store = ColumnarTrace.open(store).feature_arrays()
        from_objects = FeatureArrays.from_workloads(
            job.features for job in small_trace
        )
        for field in dataclasses.fields(FeatureArrays):
            ours = np.asarray(getattr(from_store, field.name))
            theirs = np.asarray(getattr(from_objects, field.name))
            assert ours.dtype == theirs.dtype, field.name
            assert ours.tobytes() == theirs.tobytes(), field.name

    def test_architecture_filter(self, store, small_trace):
        arch = Architecture.PS_WORKER
        filtered = ColumnarTrace.open(store).feature_arrays(arch)
        expected = FeatureArrays.from_workloads(
            job.features
            for job in small_trace
            if job.features.architecture is arch
        )
        assert np.array_equal(filtered.num_cnodes, expected.num_cnodes)
        assert np.array_equal(filtered.flop_count, expected.flop_count)

    def test_from_columnar_validates(self):
        columns = {
            "architecture": np.array([0]),
            "num_cnodes": np.array([0]),  # invalid
            "batch_size": np.array([1]),
            "flop_count": np.array([1.0]),
            "memory_access_bytes": np.array([1.0]),
            "input_bytes": np.array([1.0]),
            "weight_traffic_bytes": np.array([0.0]),
            "embedding_traffic_bytes": np.array([0.0]),
        }
        with pytest.raises(ValueError, match="num_cnodes"):
            FeatureArrays.from_columnar(columns)
        columns["num_cnodes"] = np.array([2])  # 1w1g with 2 cNodes
        with pytest.raises(ValueError, match="one cNode"):
            FeatureArrays.from_columnar(columns)
        with pytest.raises(KeyError, match="missing columns"):
            FeatureArrays.from_columnar({"architecture": np.array([0])})

    def test_plain_string_names_keep_trailing_nuls(self):
        # A unicode array strips trailing NULs just like the S dtype.
        record = WorkloadFeatures(
            name="job\x00",
            architecture=Architecture.SINGLE,
            num_cnodes=1,
            batch_size=1,
            flop_count=1.0,
            memory_access_bytes=1.0,
            input_bytes=1.0,
            weight_traffic_bytes=0.0,
        )
        columns = {
            field: [getattr(record, field)] for field in FEATURE_FIELDS
        }
        columns["architecture"] = [ARCH_CODES.index(Architecture.SINGLE)]
        view = FeatureArrays.from_columnar(columns).view(0)
        assert view.name == "job\x00"
        assert view.materialize() == record

    def test_cluster_cnodes_are_not_bounded_by_the_local_limit(
        self, tmp_path
    ):
        record = JobRecord(
            job_id=0,
            features=WorkloadFeatures(
                name="huge",
                architecture=Architecture.PS_WORKER,
                num_cnodes=2**20 + 1,
                batch_size=1,
                flop_count=1.0,
                memory_access_bytes=1.0,
                input_bytes=1.0,
                weight_traffic_bytes=1.0,
            ),
        )
        path = tmp_path / "huge.columnar"
        write_columnar([record], path)
        store = ColumnarTrace.open(path)
        assert list(store.iter_records()) == [record]
        assert store.feature_arrays().view(0).materialize() == record.features
        local = dataclasses.replace(
            record.features,
            architecture=Architecture.ALLREDUCE_LOCAL,
            num_cnodes=8,
        )
        columns = {field: [getattr(local, field)] for field in FEATURE_FIELDS}
        columns["architecture"] = [ARCH_CODES.index(local.architecture)]
        columns["num_cnodes"] = [9]
        with pytest.raises(ValueError, match="local-cNode bound"):
            FeatureArrays.from_columnar(columns)

    def test_empty_population_rejected(self, tmp_path):
        path = tmp_path / "empty.columnar"
        write_columnar([], path)
        store = ColumnarTrace.open(path)
        assert len(store) == 0
        assert list(store.iter_records()) == []
        with pytest.raises(ValueError, match="empty"):
            store.feature_arrays()


class TestExperimentRouting:
    def test_figs_identical_across_trace_sources(self, tmp_path, monkeypatch):
        """Figure experiments are byte-identical on columnar vs JSONL,
        and the columnar run never materializes a ``JobRecord``."""
        import repro.analysis.context as ctx
        from repro.analysis import (
            census,
            fig07_breakdown,
            fig08_cdf,
            fig09_allreduce,
            fig10_shift,
            fig11_hardware,
            fig15_efficiency,
            fig16_overlap,
        )

        jobs = generate_trace(num_jobs=1500, seed=3)
        jsonl = tmp_path / "t.jsonl"
        columnar = tmp_path / "t.columnar"
        save_trace(jobs, jsonl)
        write_columnar(jobs, columnar, shard_rows=512)
        modules = (
            fig07_breakdown,
            fig08_cdf,
            fig09_allreduce,
            fig10_shift,
            fig11_hardware,
            fig15_efficiency,
            fig16_overlap,
            census,
        )

        def result_bytes(result):
            return json.dumps(
                dataclasses.asdict(result), sort_keys=True, default=repr
            )

        def run_all():
            ctx.clear_caches()
            return [result_bytes(module.run()) for module in modules]

        try:
            monkeypatch.setenv(ctx.TRACE_PATH_ENV_VAR, str(columnar))
            via_columnar = run_all()
            materialized = ctx._cached_external_trace.cache_info().currsize
            monkeypatch.setenv(ctx.TRACE_PATH_ENV_VAR, str(jsonl))
            via_jsonl = run_all()
            monkeypatch.delenv(ctx.TRACE_PATH_ENV_VAR)
            explicit = [
                result_bytes(module.run(jobs=tuple(jobs)))
                for module in modules
            ]
        finally:
            ctx.clear_caches()
        assert materialized == 0
        assert via_columnar == via_jsonl == explicit

    def test_fingerprint_covers_trace_source(self, tmp_path, monkeypatch):
        import repro.analysis.context as ctx
        from repro.runtime.fingerprint import experiment_fingerprint

        jobs = generate_trace(num_jobs=50, seed=5)
        columnar = tmp_path / "t.columnar"
        write_columnar(jobs, columnar)
        try:
            baseline = experiment_fingerprint("fig7")
            monkeypatch.setenv(ctx.TRACE_PATH_ENV_VAR, str(columnar))
            ctx.clear_caches()
            external = experiment_fingerprint("fig7")
        finally:
            ctx.clear_caches()
        assert baseline != external
