"""The pai-repro command-line interface."""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.cli import build_parser, main
from repro.trace.columnar import write_columnar


def main_error(argv, capsys):
    """Run ``main(argv)``, which must exit 2; returns its stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "fig9"])
        assert args.experiment == "fig9"

    def test_run_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    ADVISE = [
        "advise", "--flops", "1T", "--memory", "1GB", "--input", "1MB",
        "--traffic", "1MB", "--weights", "1MB",
    ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "-n", "0"],
            ["convert", "in.jsonl", "out", "--shard-rows", "0"],
            ["convert", "in.jsonl", "out", "--shard-rows", "-5"],
            ["all", "--jobs", "0"],
            ["report", "-j", "-1"],
            ["serve", "--shards", "0"],
            ["serve", "-n", "0"],
            ["serve", "--batch-size", "0"],
            ["faults", "-n", "0"],
            ["faults", "--scenarios", "two"],
            ADVISE + ["--cnodes", "0"],
            ADVISE + ["--batch", "0"],
        ],
        ids=" ".join,
    )
    def test_count_options_reject_non_positive_values(self, argv, capsys):
        # They used to run (``convert --shard-rows 0`` wrote default-size
        # shards, ``all --jobs 0`` ran in-process) or die with a
        # ValueError traceback.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pai-repro ")
        assert "expected a positive integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "-n", "10", "--seed", "-1"],
            ["serve", "-n", "10", "--seed", "-1"],
            ["faults", "-n", "2", "--seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_seed_options_reject_negative_values(self, argv, capsys):
        # Each used to end in a ValueError traceback (exit 1): from
        # TraceConfig for trace and serve, from numpy for faults.
        err = main_error(argv, capsys)
        assert err.startswith("usage: pai-repro ")
        assert "argument --seed: expected a non-negative integer" in err
        args = build_parser().parse_args(argv[:-1] + ["0"])
        assert args.seed == 0

    def test_serve_trace_must_be_a_trace(self, small_trace, tmp_path, capsys):
        # A missing path used to start the service, whose replay thread
        # then died and left it answering for an empty population.
        (tmp_path / "trace.jsonl").write_text("", encoding="utf-8")
        write_columnar([], tmp_path / "store")
        parser = build_parser()
        for path in ("trace.jsonl", "store"):
            args = parser.parse_args(["serve", "--trace", str(tmp_path / path)])
            assert args.trace == str(tmp_path / path)
        for path in (tmp_path / "missing.jsonl", tmp_path):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(["serve", "--trace", str(path)])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: pai-repro ")
            assert "not a trace file or a columnar store" in err
        # A store whose manifest fails open's checks used to pass here
        # and end the command in a traceback after the port was bound.
        for name, edit in (
            ("short", lambda manifest: json.dumps({**manifest, "jobs": 19})),
            ("garbled", lambda manifest: "not json"),
        ):
            store = tmp_path / name
            write_columnar(small_trace[:20], store)
            manifest = store / "manifest.json"
            text = edit(json.loads(manifest.read_text(encoding="utf-8")))
            manifest.write_text(text, encoding="utf-8")
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(["serve", "--trace", str(store)])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: pai-repro ")
            assert str(manifest) in err

    def test_convert_input_must_be_a_trace(self, tmp_path, capsys):
        # An empty directory or a missing file used to end in a
        # traceback (exit 1) from the converter.
        out = str(tmp_path / "out.jsonl")
        for path, named in (
            (tmp_path, str(tmp_path / "manifest.json")),
            (tmp_path / "missing.jsonl", "missing.jsonl"),
        ):
            err = main_error(["convert", str(path), out], capsys)
            assert err.startswith("usage: pai-repro ")
            assert "argument input: not a trace file or a columnar store" in err
            assert named in err

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig5"], ["all", "-q", "--no-cache"], ["report", "--no-cache"]],
        ids=["run", "all", "report"],
    )
    def test_trace_path_env_must_be_a_trace(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # PAI_REPRO_TRACE_PATH at an empty directory used to end in a
        # traceback (exit 1) from the first trace read.
        monkeypatch.setenv("PAI_REPRO_TRACE_PATH", str(tmp_path))
        err = main_error(argv, capsys)
        assert err.startswith("usage: pai-repro ")
        assert "PAI_REPRO_TRACE_PATH" in err
        assert str(tmp_path / "manifest.json") in err
        assert "Traceback" not in err


def _damage(shard, damage):
    """Break ``shard`` of a store whose manifest stays valid; the text
    the error must carry."""
    if damage == "flipped-byte":
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        shard.write_bytes(raw)
        return "digest mismatch"
    if damage == "missing-shard":
        shard.unlink()
        return "No such file"
    # A compressed member cannot be mapped; the manifest is given its
    # digest, so only the mapping fails.
    with np.load(shard) as data:
        members = {name: data[name] for name in data.files}
    np.savez_compressed(shard, **members)
    manifest_path = shard.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["shards"]:
        if entry["file"] == shard.name:
            entry["sha256"] = hashlib.sha256(shard.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return "compressed"


class TestShardCheck:
    @pytest.mark.parametrize(
        "damage", ["flipped-byte", "missing-shard", "compressed"]
    )
    def test_a_store_that_fails_its_check_is_a_usage_error(
        self, damage, small_trace, tmp_path, monkeypatch, capsys
    ):
        # A store with a flipped byte used to pass: ``run fig7`` on it
        # exited 0.
        store = tmp_path / "store"
        write_columnar(small_trace[:60], store, shard_rows=20)
        shard = store / "shard-00001.npz"
        named = _damage(shard, damage)
        output = tmp_path / "out.jsonl"
        commands = [
            ["serve", "--trace", str(store)],
            ["convert", str(store), str(output)],
        ]
        for argv in commands:
            err = main_error(argv, capsys)
            assert err.startswith("usage: pai-repro ")
            assert str(shard) in err and named in err
        assert not output.exists()
        monkeypatch.setenv("PAI_REPRO_TRACE_PATH", str(store))
        for argv in (
            ["run", "fig7"],
            ["all", "-q", "--no-cache"],
            ["report", "--no-cache", "-o", str(tmp_path / "report.md")],
        ):
            err = main_error(argv, capsys)
            assert err.startswith("usage: pai-repro ")
            assert "PAI_REPRO_TRACE_PATH" in err
            assert str(shard) in err and named in err
            assert "Traceback" not in err
        assert not (tmp_path / "report.md").exists()


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("table1", "fig9", "fig13", "calibration"):
            assert experiment_id in output

    def test_run_prints_a_table(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "System settings" in output
        assert "11 TFLOPs" in output

    def test_run_table6(self, capsys):
        assert main(["run", "table6"]) == 0
        assert "0.031" in capsys.readouterr().out


class TestAdvise:
    ARGS = [
        "advise",
        "--flops", "1.56T",
        "--memory", "31.9GB",
        "--input", "38MB",
        "--traffic", "357MB",
        "--weights", "204MB",
        "--cnodes", "16",
    ]

    def test_ranks_deployments(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "best first" in output
        assert "PS/Worker" in output
        assert "AllReduce-Local" in output

    def test_no_nvlink_removes_allreduce(self, capsys):
        assert main(self.ARGS + ["--no-nvlink"]) == 0
        output = capsys.readouterr().out
        assert "AllReduce-Local" not in output
        assert "PS/Worker" in output

    def test_huge_embedding_model(self, capsys):
        args = list(self.ARGS)
        args[args.index("--weights") + 1] = "300MB"
        assert main(args + ["--embedding", "150GB"]) == 0
        output = capsys.readouterr().out
        assert "PEARL" in output
        assert "AllReduce-Local" not in output

    def test_requires_flops(self):
        with pytest.raises(SystemExit):
            main(["advise", "--memory", "1GB"])
