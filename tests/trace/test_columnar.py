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

    def test_verify_accepts_an_intact_store(self, store):
        ColumnarTrace.open(store).verify()

    def test_corruption_is_detected(self, store, tmp_path, small_trace):
        import shutil

        broken = tmp_path / "broken.columnar"
        shutil.copytree(store, broken)
        shard = sorted(broken.glob("shard-*.npz"))[0]
        raw = shard.read_bytes()
        shard.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
        # open() reads the manifest alone, so it still succeeds.
        opened = ColumnarTrace.open(broken)
        assert len(opened) == len(small_trace)
        with pytest.raises(ValueError, match="digest mismatch"):
            opened.verify()

    def test_a_missing_shard_is_named(self, store, tmp_path):
        import shutil

        broken = tmp_path / "broken.columnar"
        shutil.copytree(store, broken)
        shard = sorted(broken.glob("shard-*.npz"))[2]
        shard.unlink()
        for read in (
            lambda opened: opened.verify(),
            lambda opened: opened.column("job_id"),
            lambda opened: list(opened.iter_records()),
        ):
            with pytest.raises(FileNotFoundError, match=re.escape(str(shard))):
                read(ColumnarTrace.open(broken))

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

        reads = []
        original_map = columnar._mapped_members
        original_hash = columnar._sha256_file

        def counting_map(path):
            reads.append(("map", path.name))
            return original_map(path)

        def counting_hash(path):
            reads.append(("hash", path.name))
            return original_hash(path)

        monkeypatch.setattr(columnar, "_mapped_members", counting_map)
        monkeypatch.setattr(columnar, "_sha256_file", counting_hash)
        store = ColumnarTrace.open(three_shards)
        assert reads == []  # open() reads the manifest alone
        assert len(list(store.iter_views())) == 50
        # Each shard is hashed once, then mapped once.
        assert reads == [
            (step, shard.file)
            for shard in store.shards
            for step in ("hash", "map")
        ]


def _error_of(read):
    """The exception ``read()`` raises, or ``None``."""
    try:
        read()
    except Exception as error:
        return error
    return None


class TestShardIntegrity:
    """Every shard read checks the shard's bytes against the manifest.

    Flipping one byte at ~400 offsets of a shard used to let about half
    of the reads pass silently, with wrong values; most of the others
    raised an ``IndexError``, ``KeyError`` or ``TokenError`` naming no
    file.
    """

    @pytest.fixture()
    def shard(self, tmp_path, small_trace):
        path = tmp_path / "three.columnar"
        write_columnar(small_trace[:3], path)
        (shard,) = path.glob("shard-*.npz")
        return shard

    @staticmethod
    def _flip(shard, raw, offset):
        flipped = bytearray(raw)
        flipped[offset] ^= 0xFF
        shard.write_bytes(flipped)

    @staticmethod
    def _is_mismatch(error, shard):
        return isinstance(error, ValueError) and str(error).startswith(
            f"{shard}: content digest mismatch"
        )

    def test_every_flipped_byte_fails_verify(self, shard):
        raw = shard.read_bytes()
        passed = []
        for offset in range(len(raw)):
            self._flip(shard, raw, offset)
            # open() reads the manifest alone, so it still succeeds.
            opened = ColumnarTrace.open(shard.parent)
            error = _error_of(opened.verify)
            if not self._is_mismatch(error, shard):
                passed.append((offset, error))
        assert passed == []

    def test_a_flipped_byte_fails_the_first_read(self, shard):
        raw = shard.read_bytes()
        first_npy = raw.find(b"\x93NUMPY")
        offsets = {
            "local header": 0,
            "npy header": first_npy + 20,
            "first column's data": first_npy + 128,
            "middle": len(raw) // 2,
            "central directory": raw.rfind(b"PK\x01\x02") + 20,
            "end of central directory": raw.rfind(b"PK\x05\x06") + 10,
        }
        reads = {
            "column": lambda opened: opened.column("flop_count"),
            "feature_arrays": lambda opened: opened.feature_arrays(),
            "iter_views": lambda opened: list(opened.iter_views()),
            "iter_records": lambda opened: list(opened.iter_records()),
        }
        passed = []
        for where, offset in offsets.items():
            self._flip(shard, raw, offset)
            for name, read in reads.items():
                opened = ColumnarTrace.open(shard.parent)
                error = _error_of(lambda: read(opened))
                if not self._is_mismatch(error, shard):
                    passed.append((where, name, error))
        assert passed == []


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

    @staticmethod
    def _compress_a_shard(store, copy):
        """Copy ``store`` to ``copy`` with its second shard rewritten by
        ``np.savez_compressed``; the rewritten shard's path."""
        import shutil

        shutil.copytree(store, copy)
        shard = sorted(copy.glob("shard-*.npz"))[1]
        with np.load(shard) as data:
            members = {name: data[name] for name in data.files}
        np.savez_compressed(shard, **members)
        return shard

    def test_a_compressed_shard_fails_its_digest(self, store, tmp_path):
        # It used to be read eagerly, through a second reader.
        shard = self._compress_a_shard(store, tmp_path / "compressed.columnar")
        with pytest.raises(
            ValueError,
            match=re.escape(str(shard)) + ": content digest mismatch",
        ):
            ColumnarTrace.open(shard.parent).column("flop_count")

    def test_a_compressed_shard_is_never_mapped(self, store, tmp_path):
        from repro.trace.columnar import _sha256_file

        shard = self._compress_a_shard(store, tmp_path / "compressed.columnar")
        manifest_path = shard.parent / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for entry in manifest["shards"]:
            if entry["file"] == shard.name:
                entry["sha256"] = _sha256_file(shard)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        opened = ColumnarTrace.open(shard.parent)
        for read in (
            lambda: opened.column("flop_count"),
            opened.verify,
            lambda: list(opened.iter_records()),
        ):
            with pytest.raises(
                ValueError, match=re.escape(str(shard)) + ".*compressed"
            ):
                read()

    def test_views_carry_the_shape_of_their_features(
        self, store, small_trace
    ):
        # Four shards of 128, 128, 128 and 16 rows: every shard's rows
        # are read from that shard's slice of the columns.
        views = list(ColumnarTrace.open(store).iter_views())
        assert len(views) == len(small_trace)
        for view, record in zip(views, small_trace):
            materialized = view.features.materialize()
            assert materialized == record.features
            assert view.workload_type is view.features.architecture
            assert view.workload_type is record.workload_type
            assert view.num_cnodes == view.features.num_cnodes
            assert view.num_cnodes == materialized.num_cnodes
            assert view.num_cnodes == record.num_cnodes
            assert (view.job_id, view.submit_day, view.user_group) == (
                record.job_id,
                record.submit_day,
                record.user_group,
            )
            for value in (view.job_id, view.submit_day, view.num_cnodes):
                assert type(value) is int

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
