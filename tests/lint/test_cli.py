"""The ``python -m repro.lint`` / ``repro-lint`` command line."""

from __future__ import annotations

import json

import pytest

from repro.lint import all_rules
from repro.lint.cli import main


@pytest.fixture()
def dirty_tree(tmp_path, monkeypatch):
    """A tree with one violation; cwd moved there so no repo baseline
    is silently picked up."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text('print("leak")\n')
    return tmp_path


def test_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


def test_findings_exit_1_clean_exit_0(dirty_tree, capsys):
    assert main([str(dirty_tree)]) == 1
    assert "no-print" in capsys.readouterr().out
    (dirty_tree / "mod.py").write_text("VALUE = 1\n")
    assert main([str(dirty_tree)]) == 0


def test_json_format_streams_obs_events(dirty_tree, capsys):
    assert main([str(dirty_tree), "--format", "json"]) == 1
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    kinds = [event["kind"] for event in events]
    assert kinds[:-1] == ["lint.finding"] * (len(events) - 1)
    assert kinds[-1] == "lint.summary"
    assert events[0]["rule"] == "no-print"


def test_rules_flag_restricts_and_validates(dirty_tree, capsys):
    assert main([str(dirty_tree), "--rules", "units-hygiene"]) == 0
    for extra in ([], ["--write-baseline"]):
        with pytest.raises(SystemExit) as excinfo:
            main([str(dirty_tree), "--rules", "bogus", *extra])
        assert excinfo.value.code == 2
    assert not (dirty_tree / "lint-baseline.json").exists()


def test_write_baseline_then_clean_run(dirty_tree, capsys):
    assert main([str(dirty_tree), "--write-baseline"]) == 0
    assert (dirty_tree / "lint-baseline.json").exists()
    # The default baseline in cwd is now picked up automatically.
    assert main([str(dirty_tree)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out.splitlines()[-1]


def test_explicit_baseline_path(dirty_tree, capsys):
    baseline = dirty_tree / "custom.json"
    assert main([str(dirty_tree), "--write-baseline", "--baseline", str(baseline)]) == 0
    assert main([str(dirty_tree), "--baseline", str(baseline)]) == 0


def test_corrupt_baseline_is_a_usage_error(dirty_tree):
    bad = dirty_tree / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        main([str(dirty_tree), "--baseline", str(bad)])
    assert excinfo.value.code == 2


def test_stale_baseline_entries_fail_the_run(dirty_tree, capsys):
    assert main([str(dirty_tree), "--write-baseline"]) == 0
    # Fix the finding; its baseline entry is now stale, which must fail
    # the run even though there are zero findings.
    (dirty_tree / "mod.py").write_text("VALUE = 1\n")
    assert main([str(dirty_tree)]) == 1
    captured = capsys.readouterr()
    assert "stale baseline" in captured.err


def test_prune_baseline_drops_stale_entries(dirty_tree, capsys):
    assert main([str(dirty_tree), "--write-baseline"]) == 0
    (dirty_tree / "mod.py").write_text("VALUE = 1\n")
    assert main([str(dirty_tree), "--prune-baseline"]) == 0
    payload = json.loads((dirty_tree / "lint-baseline.json").read_text())
    assert payload["entries"] == []
    # After the prune, a plain run is clean again.
    assert main([str(dirty_tree)]) == 0
    capsys.readouterr()


def test_prune_baseline_requires_a_baseline_file(dirty_tree):
    with pytest.raises(SystemExit) as excinfo:
        main([str(dirty_tree), "--prune-baseline"])
    assert excinfo.value.code == 2


def test_baseline_entries_without_reasons_are_rejected(dirty_tree, capsys):
    assert main([str(dirty_tree), "--write-baseline"]) == 0
    path = dirty_tree / "lint-baseline.json"
    payload = json.loads(path.read_text())
    for entry in payload["entries"]:
        entry["reason"] = ""
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as excinfo:
        main([str(dirty_tree)])
    assert excinfo.value.code == 2


@pytest.fixture()
def two_rule_tree(dirty_tree):
    """The dirty tree plus an api-hygiene finding, both baselined."""
    (dirty_tree / "defaults.py").write_text("def f(items=[]):\n    return items\n")
    assert main([str(dirty_tree), "--write-baseline"]) == 0
    return dirty_tree


def _baseline_rules(tree):
    payload = json.loads((tree / "lint-baseline.json").read_text())
    return sorted(entry["rule"] for entry in payload["entries"])


def test_restricted_run_leaves_other_rules_entries_alone(two_rule_tree, capsys):
    capsys.readouterr()
    assert main([str(two_rule_tree), "--rules", "no-print"]) == 0
    captured = capsys.readouterr()
    assert "stale" not in captured.out + captured.err
    assert "1 baselined" in captured.out.splitlines()[-1]


def test_restricted_prune_keeps_other_rules_entries(two_rule_tree, capsys):
    (two_rule_tree / "mod.py").write_text("VALUE = 1\n")
    assert main([str(two_rule_tree), "--rules", "no-print", "--prune-baseline"]) == 0
    assert "pruned 1 stale entry" in capsys.readouterr().out
    assert _baseline_rules(two_rule_tree) == ["api-hygiene"]


def test_restricted_write_baseline_keeps_other_rules_entries(two_rule_tree):
    (two_rule_tree / "mod.py").write_text("VALUE = 1\n")
    assert main([str(two_rule_tree), "--rules", "no-print", "--write-baseline"]) == 0
    assert _baseline_rules(two_rule_tree) == ["api-hygiene"]
    assert main([str(two_rule_tree)]) == 0


def test_help_offers_no_jobs_or_cache_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--jobs" not in out and "--cache" not in out


def test_sarif_file_is_written_even_when_findings_fail_the_run(dirty_tree):
    assert main([str(dirty_tree), "--sarif", "out.sarif"]) == 1
    doc = json.loads((dirty_tree / "out.sarif").read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "no-print"


def test_sarif_format_prints_to_stdout(dirty_tree, capsys):
    assert main([str(dirty_tree), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
