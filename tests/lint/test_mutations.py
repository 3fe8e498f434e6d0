"""Seeded-defect mutations: each flow rule catches its target bug.

These tests take the *real* sources the rules were calibrated against,
re-introduce the exact defect class the rule exists to catch, and
assert the rule fires on the mutant -- and stays quiet on the pristine
file.  If a refactor ever renames the mutated anchors, the ``assert
anchor in source`` lines fail first with a clear message, rather than
the mutation silently becoming a no-op.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.engine import lint_source

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def read(relative: str) -> str:
    return (SRC / relative).read_text(encoding="utf-8")


def rules_fired(source: str, module: str, rules) -> set:
    findings = lint_source(
        source,
        filename=f"src/repro/{module.split('.')[-1]}.py",
        module=module,
        rules=rules,
    )
    return {finding.rule for finding in findings}


# ---- lock-discipline ------------------------------------------------


def test_removing_shard_lock_from_ingest_fires_lock_discipline():
    source = read("serve/state.py")
    anchor = "                with shard.lock:"
    assert anchor in source
    mutant = source.replace(anchor, "                if True:", 1)
    assert "lock-discipline" not in rules_fired(
        source, "repro.serve.state", ["lock-discipline"]
    )
    assert "lock-discipline" in rules_fired(
        mutant, "repro.serve.state", ["lock-discipline"]
    )


# ---- resource-safety ------------------------------------------------


def test_removing_os_replace_from_atomic_write_fires_resource_safety():
    source = read("trace/serialization.py")
    anchor = "        os.replace(tmp, path)\n"
    assert anchor in source
    mutant = source.replace(anchor, "", 1)
    assert "resource-safety" not in rules_fired(
        source, "repro.trace.serialization", ["resource-safety"]
    )
    assert "resource-safety" in rules_fired(
        mutant, "repro.trace.serialization", ["resource-safety"]
    )


# ---- exception-contract ---------------------------------------------


def test_swallowing_the_worker_traceback_fires_exception_contract():
    source = read("runtime/executor.py")
    anchor = "traceback.format_exc(),"
    assert anchor in source
    mutant = source.replace(anchor, '"worker failed",', 1)
    assert "exception-contract" not in rules_fired(
        source, "repro.runtime.executor", ["exception-contract"]
    )
    assert "exception-contract" in rules_fired(
        mutant, "repro.runtime.executor", ["exception-contract"]
    )


# ---- hot-path -------------------------------------------------------


def test_np_append_in_a_loop_fires_hot_path_in_a_hot_module():
    source = read("core/population.py")
    extra = (
        "\n\n"
        "def _accumulate(values):\n"
        '    """Mutant: quadratic accumulation."""\n'
        "    out = np.empty(0)\n"
        "    for value in values:\n"
        "        out = np.append(out, value)\n"
        "    return out\n"
    )
    assert "hot-path" not in rules_fired(
        source, "repro.core.population", ["hot-path"]
    )
    assert "hot-path" in rules_fired(
        source + extra, "repro.core.population", ["hot-path"]
    )


@pytest.mark.parametrize(
    "relative, module",
    [
        ("core/classify.py", "repro.core.classify"),
        ("core/sensitivity.py", "repro.core.sensitivity"),
    ],
)
def test_a_per_job_loop_fires_hot_path_in_the_columnar_analyses(
    relative, module
):
    source = read(relative)
    extra = (
        "\n\n"
        "def _shares(breakdowns):\n"
        '    """Mutant: the per-job population loop, back again."""\n'
        "    out = []\n"
        "    for index in range(len(breakdowns)):\n"
        "        out.append(breakdowns[index].fractions().tolist())\n"
        "    return out\n"
    )
    assert "hot-path" not in rules_fired(source, module, ["hot-path"])
    assert "hot-path" in rules_fired(source + extra, module, ["hot-path"])


def test_the_same_defect_is_quiet_outside_hot_modules():
    source = (
        '"""Cold module."""\n\n'
        "import numpy as np\n\n\n"
        "def accumulate(values):\n"
        '    """Quadratic, but nobody cares here."""\n'
        "    out = np.empty(0)\n"
        "    for value in values:\n"
        "        out = np.append(out, value)\n"
        "    return out\n"
    )
    assert "hot-path" not in rules_fired(
        source, "repro.analysis.scratch", ["hot-path"]
    )
