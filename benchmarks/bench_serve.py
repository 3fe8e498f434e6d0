"""Benchmark the repro.serve resident service under concurrent load.

Measures the two numbers the serve layer claims, and writes them to a
BENCH JSON file (CI uploads the quick variant as an artifact):

* ``ingest_jobs_per_s`` -- trace-replay throughput into the sharded
  state with no query load;
* ``query.p50_ms`` / ``query.p99_ms`` -- per-request latency seen by
  ``--clients`` concurrent HTTP clients (at least 8) hammering every
  read endpoint *while a throttled replay is still ingesting*, plus
  how many of those queries landed mid-ingestion.

Every response is checked for internal consistency (job counts never
move backwards for any client), and after the replay drains the served
aggregates are compared leaf-by-leaf against the one-shot batch path on
the same trace -- the benchmark fails loudly on drift.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py              # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick      # CI
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from pathlib import Path

#: Trace size of ``--quick`` mode (CI smoke); full mode replays 20000.
QUICK_TRACE_JOBS = 2000
FULL_TRACE_JOBS = 20000

#: How long the throttled replay should stay live while clients query.
TARGET_REPLAY_S = 3.0

#: Quantile drift allowed when sketches have compacted (population
#: above the per-sketch capacity); exact-mode drift bound is 1e-9.
SKETCH_RTOL = 0.02


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def bench_ingest(jobs, shards: int) -> dict:
    """Unthrottled replay throughput into the sharded state."""
    from repro.serve import ShardedState, TraceReplayer

    state = ShardedState(num_shards=shards)
    replayer = TraceReplayer(jobs, batch_size=500)
    start = time.perf_counter()
    delivered = replayer.replay(state.ingest)
    elapsed = time.perf_counter() - start
    if delivered != len(jobs):
        raise RuntimeError(f"replay delivered {delivered}/{len(jobs)} jobs")
    return {
        "jobs": delivered,
        "wall_s": round(elapsed, 4),
        "ingest_jobs_per_s": round(delivered / elapsed, 1),
    }


def bench_queries(jobs, shards: int, clients: int) -> dict:
    """Concurrent query latency during a live, throttled replay."""
    from repro.serve import (
        CDF_METRICS,
        ServeClient,
        ShardedState,
        TraceReplayer,
        TraceService,
    )

    day_span = max(job.submit_day for job in jobs) - min(
        job.submit_day for job in jobs
    )
    state = ShardedState(num_shards=shards)
    service = TraceService(state=state)
    service.start()
    stop = threading.Event()
    latencies = [[] for _ in range(clients)]
    during_ingest = [0] * clients
    failures = []

    def worker(slot: int) -> None:
        client = ServeClient(service.url)
        endpoints = [
            lambda: client.stats(),
            lambda: client.census(),
            lambda: client.cdf("step_time", points=20),
            lambda: client.cdf(CDF_METRICS[slot % len(CDF_METRICS)]),
            lambda: client.healthz(),
        ]
        floor = 0
        turn = 0
        try:
            while not stop.is_set():
                begin = time.perf_counter()
                payload = endpoints[turn % len(endpoints)]()
                latencies[slot].append(time.perf_counter() - begin)
                jobs_seen = payload.get("jobs", floor)
                if jobs_seen < floor:
                    raise RuntimeError(
                        f"job count went backwards: {jobs_seen} < {floor}"
                    )
                floor = jobs_seen
                if not payload.get("ingest_complete", jobs_seen >= len(jobs)):
                    during_ingest[slot] += 1
                turn += 1
        except Exception as error:  # surfaced after join
            failures.append((slot, error))
        finally:
            client.close()

    try:
        service.start_replay(
            TraceReplayer(
                jobs,
                batch_size=250,
                seconds_per_day=TARGET_REPLAY_S / max(day_span, 1),
            )
        )
        threads = [
            threading.Thread(target=worker, args=(slot,), daemon=True)
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        if not service.wait_for_ingest(timeout=300):
            raise RuntimeError("replay did not finish within 300s")
        # One more full round against the final population, then stop.
        time.sleep(0.1)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        if failures:
            raise RuntimeError(f"client failures: {failures!r}")
        verify_against_batch(jobs, state)
    finally:
        stop.set()
        service.stop()

    flat = [sample for per_client in latencies for sample in per_client]
    if not flat:
        raise RuntimeError("no queries completed")
    return {
        "clients": clients,
        "queries": len(flat),
        "queries_during_ingest": sum(during_ingest),
        "p50_ms": round(_percentile(flat, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(flat, 0.99) * 1e3, 3),
        "max_ms": round(max(flat) * 1e3, 3),
    }


def verify_against_batch(jobs, state) -> None:
    """Drained service vs one-shot batch path, leaf by leaf."""
    from repro.serve import batch_reference, payload_leaves
    from repro.serve.stats import DEFAULT_SKETCH_CAPACITY

    served = state.snapshot().stats.reference_payload()
    reference = batch_reference(jobs)
    exact = len(jobs) <= DEFAULT_SKETCH_CAPACITY
    for (path, got), (ref_path, want) in zip(
        payload_leaves(served), payload_leaves(reference)
    ):
        if path != ref_path:
            raise RuntimeError(f"payload shapes differ: {path} vs {ref_path}")
        sketched = path.startswith("quantiles.") and not exact
        tolerance = SKETCH_RTOL if sketched else 1e-9
        if isinstance(want, float) and not math.isclose(
            got, want, rel_tol=tolerance, abs_tol=1e-12
        ):
            raise RuntimeError(
                f"serve/batch drift at {path}: {got!r} vs {want!r}"
            )
        if not isinstance(want, float) and got != want:
            raise RuntimeError(
                f"serve/batch mismatch at {path}: {got!r} vs {want!r}"
            )


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
        "--clients", type=int, default=8, help="concurrent query clients"
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="population shard count"
    )
    args = parser.parse_args(argv)
    if args.clients < 8:
        parser.error("--clients must be at least 8")

    from repro import __version__
    from repro.trace.generator import generate_trace

    num_jobs = QUICK_TRACE_JOBS if args.quick else FULL_TRACE_JOBS
    jobs = generate_trace(num_jobs=num_jobs, seed=20190501)
    payload = {
        "bench": "serve",
        "version": __version__,
        "quick": args.quick,
        "trace_jobs": num_jobs,
        "shards": args.shards,
        "ingest": bench_ingest(jobs, args.shards),
        "query": bench_queries(jobs, args.shards, args.clients),
    }
    text = json.dumps(payload, indent=2) + "\n"
    print(text, end="")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
