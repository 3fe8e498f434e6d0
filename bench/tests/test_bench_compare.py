import json

from compare import compare, verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


def pairs(a, b):
    return list(zip(a, b))


def test_clear_win_is_improved():
    faster = [v * 0.8 for v in BASE]
    assert verdict(BASE, faster, pairs(BASE, faster), "lower", 0.1) == "improved"
    higher = [v * 1.2 for v in BASE]
    assert verdict(BASE, higher, pairs(BASE, higher), "higher", 0.1) == "improved"


def test_worse_beyond_bound_is_regressed():
    slower = [v * 1.15 for v in BASE]
    assert verdict(BASE, slower, pairs(BASE, slower), "lower", 0.1) == "regressed"
    assert verdict(BASE, slower, pairs(BASE, slower), "higher", 0.1) == "improved"


def test_same_distribution_is_unchanged():
    shuffled = BASE[::-1]
    assert verdict(BASE, shuffled, pairs(BASE, shuffled), "lower", 0.1) == "unchanged"


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = [70.0, 130.0, 100.0, 85.0, 115.0, 95.0, 105.0, 80.0, 120.0, 100.0]
    candidate = [v * 0.95 for v in noisy]
    assert verdict(noisy, candidate, pairs(noisy, candidate), "lower", 0.1) == "unresolved"
    dominant = [60.0] * 10
    assert verdict(noisy, dominant, pairs(noisy, dominant), "lower", 0.1) == "improved"


def write_runs(directory, values, failed=0):
    directory.mkdir()
    for seed, value in enumerate(values):
        record = {
            "workload": "w",
            "seed": seed,
            "trace": 0,
            "correct": True,
            "attempted": 10,
            "failed": failed,
            "metrics": {"latency_ms": {"value": value, "unit": "ms"}},
        }
        (directory / f"w-{seed}.json").write_text(json.dumps(record))


SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
}


def test_compare_flags_regressions_and_error_rises(tmp_path):
    write_runs(tmp_path / "a", BASE)
    write_runs(tmp_path / "same", BASE[::-1])
    write_runs(tmp_path / "slow", [v * 1.3 for v in BASE])
    write_runs(tmp_path / "failing", BASE, failed=1)
    lines, ok = compare(tmp_path / "a", tmp_path / "same", SPEC)
    assert ok and lines[-1].endswith("unchanged")
    lines, ok = compare(tmp_path / "a", tmp_path / "slow", SPEC)
    assert not ok and lines[-1].endswith("regressed")
    lines, ok = compare(tmp_path / "a", tmp_path / "failing", SPEC)
    assert not ok and any("error ratio rose" in line for line in lines)


def test_compare_fails_candidates_that_lose_or_fail_runs(tmp_path):
    write_runs(tmp_path / "a", BASE)
    write_runs(tmp_path / "short", BASE[:7])
    (tmp_path / "none").mkdir()
    write_runs(tmp_path / "incorrect", BASE)
    failed = {
        "workload": "w", "seed": 3, "trace": 0,
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
    }
    (tmp_path / "incorrect" / "w-3.json").write_text(json.dumps(failed))
    for candidate in ("short", "none", "incorrect"):
        lines, ok = compare(tmp_path / "a", tmp_path / candidate, SPEC)
        assert not ok, candidate
        assert any("B failed" in line for line in lines), candidate
    # The correct runs are still compared.
    lines, _ = compare(tmp_path / "a", tmp_path / "incorrect", SPEC)
    assert lines[-1].endswith("unchanged")
