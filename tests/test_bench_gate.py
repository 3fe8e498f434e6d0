"""``tools/bench_gate.py``: the CI gate over the committed bench trajectory."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = ROOT / "benchmarks" / "BENCH_1.7.0.json"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "tools" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_gate = _load_gate()


@pytest.fixture()
def baseline():
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


@pytest.fixture()
def current(baseline):
    """A fresh payload as today's bench writes it: the ``suite`` and
    ``populations`` blocks only."""
    payload = copy.deepcopy(baseline)
    del payload["sched"], payload["vectorization"]
    return payload


def _check(baseline, current):
    return bench_gate.check(baseline, current, bench_gate.DEFAULT_THRESHOLD)


def test_committed_baseline_gates_green_against_itself(baseline):
    assert _check(baseline, copy.deepcopy(baseline)) == []


def test_payload_without_sched_or_vectorization_gates_green(
    baseline, current
):
    # The committed baseline still carries both ungated blocks.
    assert {"sched", "vectorization"} <= set(baseline)
    assert _check(baseline, current) == []


@pytest.mark.parametrize("key", bench_gate.GATED_RATIOS)
def test_ratio_below_floor_fails(baseline, current, key):
    row = current["populations"][0]
    row[key] = round(row[key] * 0.5, 1)
    failures = _check(baseline, current)
    assert len(failures) == 1
    assert f"{row['jobs']} jobs: {key} regressed" in failures[0]


def test_ratio_within_threshold_passes(baseline, current):
    row = current["populations"][0]
    row["vectorized_speedup"] = round(row["vectorized_speedup"] * 0.8, 2)
    assert _check(baseline, current) == []


def test_no_shared_population_size_fails(baseline, current):
    for row in current["populations"]:
        row["jobs"] += 1
    failures = _check(baseline, current)
    assert len(failures) == 1
    assert "nothing was gated" in failures[0]


def test_suite_not_byte_identical_fails(baseline, current):
    current["suite"]["byte_identical"] = False
    assert _check(baseline, current) == [
        "warm suite run was not byte-identical"
    ]


def test_population_stats_not_identical_fails(baseline, current):
    row = current["populations"][-1]
    row["stats_identical"] = False
    assert _check(baseline, current) == [
        f"{row['jobs']} jobs: JSONL and columnar statistics differ"
    ]
