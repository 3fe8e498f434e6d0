"""Engine-level tests: the seeded-violations tree, path-dependent
findings, baselines, and the pytest bridge."""

from __future__ import annotations

import pytest

from repro.lint import Baseline, assert_clean, lint_paths, write_baseline


def _seed_tree(root):
    """A package tree carrying exactly the issue's three violations:

    * an unseeded ``np.random`` draw reachable (cross-file) from a
      registered experiment,
    * a ``core`` module importing ``analysis``,
    * a bare ``print``.
    """
    pkg = root / "repro"
    for sub in (pkg, pkg / "core", pkg / "analysis"):
        sub.mkdir(parents=True, exist_ok=True)
        (sub / "__init__.py").write_text("")
    (pkg / "analysis" / "helpers.py").write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def draw():\n"
        "    return np.random.rand(4)\n"
    )
    (pkg / "analysis" / "registry.py").write_text(
        "from repro.analysis import helpers\n"
        "\n"
        "\n"
        "def run_fig1():\n"
        "    return helpers.draw()\n"
        "\n"
        "\n"
        'EXPERIMENTS = {"fig1": run_fig1}\n'
    )
    (pkg / "core" / "helper.py").write_text(
        "from repro.analysis import registry\n"
        "\n"
        "\n"
        "def experiments():\n"
        "    return registry.EXPERIMENTS\n"
    )
    (pkg / "core" / "printer.py").write_text(
        "def shout():\n"
        '    print("loud")\n'
    )
    return pkg


def _by_rule(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(finding.rule, []).append(finding)
    return grouped


def test_seeded_violations_are_each_caught_with_location(tmp_path):
    pkg = _seed_tree(tmp_path)
    result = lint_paths([tmp_path])
    grouped = _by_rule(result.findings)

    (determinism,) = grouped["determinism"]
    assert determinism.path.endswith("helpers.py")
    assert determinism.line == 5
    assert "'fig1'" in determinism.message
    assert "repro.analysis.registry.run_fig1" in determinism.message

    (layering,) = grouped["import-layering"]
    assert layering.path == str(pkg / "core" / "helper.py")
    assert layering.line == 1
    assert "repro.core.helper -> repro.analysis" in layering.message

    (no_print,) = grouped["no-print"]
    assert no_print.path == str(pkg / "core" / "printer.py")
    assert no_print.line == 2

    assert set(result.rule_ids) >= {
        "api-hygiene",
        "determinism",
        "fork-safety",
        "import-layering",
        "no-print",
        "units-hygiene",
    }


def test_identical_files_at_two_package_paths_get_their_own_findings(tmp_path):
    """A file's findings depend on its path (through its module name),
    not only on its bytes."""
    pkg = tmp_path / "repro"
    for sub in ("", "core", "trace", "serve"):
        (pkg / sub).mkdir(parents=True, exist_ok=True)
        (pkg / sub / "__init__.py").write_text("")
    for sub in ("core", "trace", "serve"):
        (pkg / sub / "x.py").write_text("from ..serve import thing\n")
    result = lint_paths([tmp_path], rules=["import-layering"])
    assert [(f.path, f.message) for f in result.findings] == [
        (
            str(pkg / "core" / "x.py"),
            "edge repro.core.x -> repro.serve points up the DAG "
            "(core is layer 0, serve is layer 6)",
        ),
        (
            str(pkg / "trace" / "x.py"),
            "edge repro.trace.x -> repro.serve points up the DAG "
            "(trace is layer 1, serve is layer 6)",
        ),
    ]


def test_baseline_roundtrip_grandfathers_everything(tmp_path):
    _seed_tree(tmp_path)
    dirty = lint_paths([tmp_path])
    assert not dirty.ok

    baseline_path = tmp_path / "baseline.json"
    write_baseline(dirty.findings, baseline_path)
    clean = lint_paths([tmp_path], baseline=Baseline.load(baseline_path))
    assert clean.ok
    assert len(clean.baselined) == len(dirty.findings)
    assert clean.unused_baseline == []


def test_stale_baseline_entries_are_reported(tmp_path):
    pkg = _seed_tree(tmp_path)
    dirty = lint_paths([tmp_path])
    baseline_path = tmp_path / "baseline.json"
    write_baseline(dirty.findings, baseline_path)

    # Fix the print; its baseline entry goes stale.
    (pkg / "core" / "printer.py").write_text("def shout():\n    return 0\n")
    result = lint_paths([tmp_path], baseline=Baseline.load(baseline_path))
    assert result.ok
    stale = [entry.rule for entry in result.unused_baseline]
    assert stale == ["no-print"]


def test_unparseable_file_is_a_finding_not_a_crash(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    result = lint_paths([tmp_path])
    (finding,) = result.findings
    assert finding.rule == "parse-error"
    assert finding.path.endswith("broken.py")


def test_assert_clean_raises_with_rendered_findings(tmp_path):
    _seed_tree(tmp_path)
    with pytest.raises(AssertionError) as excinfo:
        assert_clean([tmp_path])
    assert "no-print" in str(excinfo.value)
    assert "printer.py" in str(excinfo.value)


def test_assert_clean_passes_on_a_clean_tree(tmp_path):
    (tmp_path / "ok.py").write_text("def f(n_bytes):\n    return n_bytes\n")
    result = assert_clean([tmp_path])
    assert result.ok and result.files == 1


def test_rule_selection_restricts_the_run(tmp_path):
    _seed_tree(tmp_path)
    result = lint_paths([tmp_path], rules=["no-print"])
    assert {f.rule for f in result.findings} == {"no-print"}
    with pytest.raises(KeyError):
        lint_paths([tmp_path], rules=["no-such-rule"])
