"""CI regression gate over the committed bench trajectory.

Compares a fresh ``bench_runtime.py`` run (typically ``--quick``, on
whatever machine CI happens to give us) against the committed
``benchmarks/BENCH_<version>.json`` baseline.  Absolute seconds are not
portable across machines, so the gate compares *speedup ratios* --
scalar/vectorized and JSONL/columnar-load -- at matching population
sizes: a ratio is machine-relative (both sides ran on the same box), so
a >25% drop means the optimized path itself regressed, not that CI got
a slower runner.

Also enforces the correctness bits recorded by the bench: the warm
suite must be byte-identical and both trace load paths must produce
identical statistics.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py --quick -o current.json
    python tools/bench_gate.py --baseline benchmarks/BENCH_1.6.0.json \
        --current current.json

Exit status 1 on any regression beyond the threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Ratio keys compared at matching population sizes.
GATED_RATIOS = ("vectorized_speedup", "columnar_load_speedup")

DEFAULT_THRESHOLD = 0.25


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _rows_by_jobs(payload: dict) -> dict:
    return {row["jobs"]: row for row in payload.get("populations", ())}


def check(baseline: dict, current: dict, threshold: float) -> list:
    """All gate failures, as human-readable strings (empty = green)."""
    failures = []
    if not current["suite"].get("byte_identical", False):
        failures.append("warm suite run was not byte-identical")
    base_rows = _rows_by_jobs(baseline)
    current_rows = _rows_by_jobs(current)
    compared = 0
    for jobs, row in sorted(current_rows.items()):
        if not row.get("stats_identical", False):
            failures.append(
                f"{jobs} jobs: JSONL and columnar statistics differ"
            )
        base = base_rows.get(jobs)
        if base is None:
            continue
        compared += 1
        for key in GATED_RATIOS:
            floor = base[key] * (1.0 - threshold)
            if row[key] < floor:
                failures.append(
                    f"{jobs} jobs: {key} regressed to {row[key]}x "
                    f"(baseline {base[key]}x, floor {floor:.1f}x)"
                )
    if not compared:
        failures.append(
            "no population size is shared between baseline "
            f"({sorted(base_rows)}) and current ({sorted(current_rows)}); "
            "nothing was gated"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        required=True,
        help="committed BENCH_<version>.json trajectory entry",
    )
    parser.add_argument(
        "--current", required=True, help="fresh bench_runtime.py output"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional speedup regression (default 0.25)",
    )
    args = parser.parse_args(argv)
    baseline = _load(args.baseline)
    current = _load(args.current)
    failures = check(baseline, current, args.threshold)
    for failure in failures:
        print(f"BENCH GATE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"bench gate green: current speedups within {args.threshold:.0%} "
        f"of baseline {baseline.get('version')}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
