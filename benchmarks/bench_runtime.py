"""Benchmark the repro.runtime execution layer end to end.

Measures the rows ``tools/bench_gate.py`` gates, and writes them to a
BENCH JSON file (committed as ``benchmarks/BENCH.json``; CI uploads the
quick variant as an artifact):

* ``cold_serial_s`` / ``cold_parallel_s`` -- full-suite runs with an
  empty result cache, in-process and with worker processes;
* ``warm_cached_s`` / ``warm_speedup`` -- the same suite served from
  the on-disk cache, plus whether the warm report is byte-identical;
* ``populations`` -- per-size rows (20k / 200k / 1M full, smaller for
  ``--quick``) timing scalar vs vectorized analysis and JSONL parsing
  vs columnar-mmap loading, with a byte-identity check on the Fig. 7
  statistics both load paths produce.

Scheduler replays are measured by ``bench/``'s ``sched_*`` workloads.

The payload is stamped with the package version (read from
``repro.__version__``, never hardcoded) and, when ``--output`` is
given, also written to a ``BENCH_<version>.json`` trajectory sibling;
``tools/bench_gate.py`` compares a fresh quick run against the
committed trajectory entry and fails CI on >25% speedup regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py              # full
    PYTHONPATH=src python benchmarks/bench_runtime.py --quick      # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

#: Trace size of ``--quick`` mode (CI smoke); full mode uses the
#: suite default of 20000.
QUICK_TRACE_JOBS = 2000

#: Population sizes for the per-size scalar/vectorized/columnar rows.
#: Quick mode still includes 20000 so the regression gate can compare
#: speedup ratios against the committed full-mode baseline.
FULL_POPULATION_SIZES = (20_000, 200_000, 1_000_000)
QUICK_POPULATION_SIZES = (QUICK_TRACE_JOBS, 20_000)


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_suite(parallel_jobs: int) -> dict:
    """Cold/warm full-suite timings through repro.runtime."""
    from repro.analysis.context import clear_caches
    from repro.analysis.report import render_outcomes
    from repro.runtime import ResultCache, failed_ids, run_suite

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        clear_caches()
        cold_serial_s, cold = _time(lambda: run_suite(jobs=1, cache=cache))
        if failed_ids(cold):
            raise RuntimeError(f"suite failures: {failed_ids(cold)}")
        warm_cached_s, warm = _time(lambda: run_suite(jobs=1, cache=cache))
        byte_identical = render_outcomes(warm) == render_outcomes(cold)
        if not all(outcome.cached for outcome in warm):
            raise RuntimeError("warm run was not fully cache-served")
    clear_caches()
    cold_parallel_s, parallel = _time(
        lambda: run_suite(jobs=parallel_jobs, cache=None)
    )
    if failed_ids(parallel):
        raise RuntimeError(f"suite failures: {failed_ids(parallel)}")
    return {
        "experiments": len(cold),
        "cold_serial_s": round(cold_serial_s, 4),
        "cold_parallel_s": round(cold_parallel_s, 4),
        "parallel_jobs": parallel_jobs,
        "warm_cached_s": round(warm_cached_s, 4),
        "warm_speedup": round(cold_serial_s / warm_cached_s, 1),
        "byte_identical": byte_identical,
    }


def _per_job_cnode_fractions(features, hardware) -> dict:
    """Fig. 7's cNode-weighted averages, one job at a time.

    The scalar baseline of the speedup rows: ``estimate_breakdown`` per
    job, then each job's shares weighted by its cNode count in a plain
    Python loop.
    """
    from repro.core.population import COMPONENT_KEYS
    from repro.core.timemodel import estimate_breakdown

    weights = [float(f.num_cnodes) for f in features]
    sums = dict.fromkeys(COMPONENT_KEYS, 0.0)
    for f, weight in zip(features, weights):
        fractions = estimate_breakdown(f, hardware).fractions()
        for key in COMPONENT_KEYS:
            sums[key] += fractions[key] * weight
    total_weight = sum(weights)
    return {key: value / total_weight for key, value in sums.items()}


def bench_populations(sizes) -> list:
    """Per-size rows: scalar vs vectorized analysis, JSONL vs columnar.

    For each population size this generates one calibrated trace and
    measures, on identical jobs:

    * ``scalar_analysis_s`` -- the per-job Python loop producing the
      Fig. 7 cNode-weighted averages;
    * ``vectorized_analysis_s`` -- the columnar batch path on the same
      population;
    * ``jsonl_load_s`` -- parsing the trace from JSONL into an
      analysis-ready :class:`FeatureArrays`;
    * ``columnar_load_s`` -- the same endpoint via the memory-mapped
      columnar store (no per-job objects);
    * ``stats_identical`` -- whether both load paths produce
      byte-identical Fig. 7 statistics.
    """
    from repro.analysis.context import DEFAULT_TRACE_SEED, default_hardware
    from repro.core.population import FeatureArrays, batch_breakdowns
    from repro.trace.columnar import ColumnarTrace, write_columnar
    from repro.trace.generator import generate_trace
    from repro.trace.serialization import load_trace, save_trace

    hardware = default_hardware()
    rows = []
    for size in sizes:
        jobs = generate_trace(num_jobs=size, seed=DEFAULT_TRACE_SEED)
        with tempfile.TemporaryDirectory() as tmp:
            jsonl_path = Path(tmp) / "trace.jsonl"
            store_path = Path(tmp) / "trace.columnar"
            save_trace(jobs, jsonl_path)
            write_columnar(jobs, store_path)

            def load_jsonl():
                records = load_trace(jsonl_path)
                return FeatureArrays.from_workloads(
                    record.features for record in records
                )

            def load_columnar():
                return ColumnarTrace.open(store_path).feature_arrays()

            jsonl_load_s, from_jsonl = _time(load_jsonl)
            columnar_load_s, from_columnar = _time(load_columnar)
            jsonl_stats = batch_breakdowns(
                from_jsonl, hardware
            ).average_fractions(cnode_level=True)
            columnar_stats = batch_breakdowns(
                from_columnar, hardware
            ).average_fractions(cnode_level=True)
            stats_identical = jsonl_stats == columnar_stats

        features = [job.features for job in jobs]
        del jobs
        scalar_analysis_s, scalar_stats = _time(
            lambda: _per_job_cnode_fractions(features, hardware)
        )
        vectorized_analysis_s, batch_stats = _time(
            lambda: batch_breakdowns(
                FeatureArrays.from_workloads(features), hardware
            ).average_fractions(cnode_level=True)
        )
        drift = max(
            abs(scalar_stats[key] - batch_stats[key]) for key in scalar_stats
        )
        if drift > 1e-9:
            raise RuntimeError(
                f"scalar/vector drift {drift:.3e} exceeds 1e-9 at {size}"
            )
        rows.append(
            {
                "jobs": size,
                "scalar_analysis_s": round(scalar_analysis_s, 4),
                "vectorized_analysis_s": round(vectorized_analysis_s, 4),
                "vectorized_speedup": round(
                    scalar_analysis_s / vectorized_analysis_s, 1
                ),
                "jsonl_load_s": round(jsonl_load_s, 4),
                "columnar_load_s": round(columnar_load_s, 4),
                "columnar_load_speedup": round(
                    jsonl_load_s / columnar_load_s, 1
                ),
                "stats_identical": stats_identical,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: {QUICK_TRACE_JOBS}-job trace",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="BENCH JSON path (default: print to stdout only)",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=max(os.cpu_count() or 1, 2),
        help="worker count for the parallel cold run",
    )
    args = parser.parse_args(argv)

    if args.quick:
        os.environ["PAI_REPRO_TRACE_JOBS"] = str(QUICK_TRACE_JOBS)

    from repro import __version__
    from repro.analysis.context import default_trace_config

    sizes = QUICK_POPULATION_SIZES if args.quick else FULL_POPULATION_SIZES
    payload = {
        "bench": "runtime",
        "version": __version__,
        "quick": args.quick,
        "trace_jobs": default_trace_config().num_jobs,
        "suite": bench_suite(args.parallel),
        "populations": bench_populations(sizes),
    }
    text = json.dumps(payload, indent=2) + "\n"
    print(text, end="")
    if args.output:
        output = Path(args.output)
        output.write_text(text, encoding="utf-8")
        trajectory = output.with_name(f"BENCH_{__version__}.json")
        trajectory.write_text(text, encoding="utf-8")
        print(f"trajectory entry: {trajectory}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
