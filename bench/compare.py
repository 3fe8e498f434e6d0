"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 bench/compare.py DIR_A DIR_B

Each directory holds result files written by ``bench/run.py -o``; A is
the baseline and B the candidate.  For every workload and end-to-end
metric in ``BENCHMARK.json`` this prints each side's median, quartiles
and run count, the fraction of (A, B) pairs that B wins (runs are
paired by seed when both sides share seeds, else every A run meets
every B run; ties count for neither side) and a verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- B wins at least 90% of pairs and the medians differ
  by more than A's interquartile distance;
* ``unresolved`` -- a side's interquartile spread is wider than the
  bound, and not every B run beats every A run;
* ``unchanged`` -- none of the above.

Metrics come from correct runs only.  Exits 1 on any regression, and
on any workload where B has fewer runs than A (a run that crashed
writes no file), any incorrect run (``run.py`` records a failed check
as ``correct`` false), or a larger share of failed operations than A.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def beats(b: float, a: float, better: str) -> bool:
    return b > a if better == "higher" else b < a


def win_share(pairs: Sequence[Tuple[float, float]], better: str) -> float:
    """Share of ``(a, b)`` pairs where ``b`` is better."""
    return sum(beats(b, a, better) for a, b in pairs) / len(pairs)


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    """The verdict for one workload and metric (see the module doc)."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = statistics.median(b)
    change = (b_median - a_median) / abs(a_median)
    worse_by = -change if better == "higher" else change
    if worse_by > bound:
        return "regressed"
    if max(spread(a), spread(b)) > bound and not all(
        beats(y, x, better) for x in a for y in b
    ):
        return "unresolved"
    if win_share(pairs, better) >= WIN_SHARE and abs(b_median - a_median) > a_q3 - a_q1:
        return "improved" if beats(b_median, a_median, better) else "unchanged"
    return "unchanged"


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced result records by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record.get("trace"):
            runs[record["workload"]].append(record)
    return runs


def pair_values(a: List[dict], b: List[dict], metric: str) -> List[Tuple[float, float]]:
    by_seed = {run["seed"]: run for run in a}
    shared = [run for run in b if run["seed"] in by_seed]
    if shared:
        return [
            (by_seed[run["seed"]]["metrics"][metric]["value"], run["metrics"][metric]["value"])
            for run in shared
        ]
    return [
        (x["metrics"][metric]["value"], y["metrics"][metric]["value"]) for x in a for y in b
    ]


def error_ratio(runs: List[dict]) -> float:
    return sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs))


def compare(dir_a: Path, dir_b: Path, spec: dict) -> Tuple[List[str], bool]:
    """Report lines and whether B passes (no regression)."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    lines = [
        f"{'workload':<26} {'metric':<18} {'A median [q1, q3] n':<34} "
        f"{'B median [q1, q3] n':<34} {'change':>8} {'win':>5}  verdict"
    ]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        incorrect = sum(not run["correct"] for run in b)
        if len(b) < len(a) or incorrect:
            lines.append(
                f"{workload:<26} B failed: {len(b)} runs against A's {len(a)}, "
                f"{incorrect} incorrect"
            )
            ok = False
        if b and error_ratio(b) > error_ratio(a):
            lines.append(f"{workload:<26} error ratio rose: {error_ratio(a):.4f} -> {error_ratio(b):.4f}")
            ok = False
        a = [run for run in a if run["correct"]]
        b = [run for run in b if run["correct"]]
        if not a or not b:
            lines.append(f"{workload:<26} (no correct runs to compare: A {len(a)}, B {len(b)})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [run["metrics"][name]["value"] for run in a]
            values_b = [run["metrics"][name]["value"] for run in b]
            pairs = pair_values(a, b, name)
            result = verdict(values_a, values_b, pairs, metric["better"], metric["bound"])
            ok = ok and result != "regressed"
            qa, qb = quartiles(values_a), quartiles(values_b)
            change = (qb[1] - qa[1]) / abs(qa[1])
            lines.append(
                f"{workload:<26} {name:<18} "
                f"{_summary(qa, len(values_a)):<34} {_summary(qb, len(values_b)):<34} "
                f"{change:>+8.1%} {win_share(pairs, metric['better']):>5.2f}  {result}"
            )
    return lines, ok


def _summary(q: Tuple[float, float, float], count: int) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {count}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path, help="baseline result files")
    parser.add_argument("dir_b", type=Path, help="candidate result files")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    lines, ok = compare(args.dir_a, args.dir_b, spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
