"""End-to-end smoke of the resident service, as CI runs it.

Starts ``pai-repro serve`` as a real subprocess (empty population,
JSON-lines telemetry on), streams a small synthetic trace in through
``POST /ingest``, queries every endpoint, checks the served numbers
against the one-shot batch path leaf by leaf, then sends SIGTERM while
the client still holds its persistent connection open.  It requires a
clean drain within 5 s (exit code 0), and an event log whose summary
shows that connections carried several requests each
(``serve.connections`` < ``serve.query.requests``).

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--jobs N] [--events PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def start_service(events_path: str) -> "tuple[subprocess.Popen, str]":
    """Launch the CLI subprocess; returns (process, base URL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.analysis.cli",
            "serve",
            "--port",
            "0",
            "--shards",
            "3",
            "--no-cache",
            "--log-json",
            events_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline().strip()
    if not line.startswith("serving on "):
        process.kill()
        stderr = process.stderr.read()
        raise RuntimeError(f"unexpected banner {line!r}; stderr: {stderr}")
    return process, line.removeprefix("serving on ")


#: Seconds the service may take to drain and exit after SIGTERM.
DRAIN_LIMIT_S = 5.0


def check_endpoints(url: str, jobs):
    """Every endpoint answers, and the numbers match the batch path.

    Returns the client, whose connection stays open for the caller to
    hold across the shutdown."""
    from repro.serve import (
        CDF_METRICS,
        ServeClient,
        ServiceError,
        batch_reference,
    )

    client = ServeClient(url)
    health = client.healthz()
    assert health["status"] == "ok", health
    assert health["jobs"] == 0, health

    ingested = client.ingest(jobs)
    assert ingested["ingested"] == len(jobs), ingested

    reference = batch_reference(jobs)
    stats = client.stats()
    assert stats["jobs"] == reference["jobs"], stats
    assert stats["architectures"] == reference["architectures"], stats
    for level in ("job", "cnode"):
        for table in ("fractions", "hardware_shares"):
            for key, want in reference[table][level].items():
                got = stats[table][level][key]
                assert math.isclose(got, want, rel_tol=1e-9), (
                    table, level, key, got, want,
                )
    census = client.census()
    for level in ("job", "cnode"):
        for label, want in reference["census"][level].items():
            got = census["census"][level][label]
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
                level, label, got, want,
            )
    for metric in CDF_METRICS:
        payload = client.cdf(metric, points=20)
        assert len(payload["series"]) > 0, payload
        for quantile, want in reference["quantiles"][metric].items():
            got = payload["quantiles"][quantile]
            assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-9), (
                metric, quantile, got, want,
            )
    try:
        client.cdf("bogus")
    except ServiceError as error:
        assert error.status == 400, error
    else:
        raise AssertionError("bogus metric should be a 400")
    return client


def check_connection_reuse(events: Path) -> "tuple[int, int]":
    """``(connections, requests)`` from the event log's summary, and
    require fewer connections than requests."""
    summaries = [
        record
        for record in map(json.loads, events.read_text().splitlines())
        if record.get("kind") == "summary"
    ]
    assert summaries, f"no summary event in {events}"
    counters = summaries[-1]["metrics"]["counters"]
    connections = counters["serve.connections"]
    requests = counters["serve.query.requests"]
    assert connections < requests, (
        f"{connections} connections for {requests} requests: "
        "connections were not reused"
    )
    return connections, requests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=600)
    parser.add_argument("--events", default="serve-events.jsonl")
    args = parser.parse_args(argv)

    from repro.trace.generator import generate_trace

    jobs = generate_trace(num_jobs=args.jobs, seed=7)
    process, url = start_service(args.events)
    try:
        client = check_endpoints(url, jobs)
    except BaseException:
        process.kill()
        process.wait()
        raise
    # The client's idle connection stays open: the drain must end it
    # rather than wait out the handler's idle timeout.
    process.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + DRAIN_LIMIT_S
    while process.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
    client.close()
    if process.poll() is None:
        process.kill()
        raise RuntimeError(
            f"service did not drain within {DRAIN_LIMIT_S:g}s of SIGTERM"
        )
    stdout, stderr = process.communicate()
    if process.returncode != 0:
        raise RuntimeError(
            f"service exited {process.returncode}; stderr: {stderr}"
        )
    assert "shut down cleanly" in stdout, stdout
    events = Path(args.events)
    assert events.is_file() and events.stat().st_size > 0, (
        f"missing or empty event log {events}"
    )
    connections, requests = check_connection_reuse(events)
    print(
        f"serve smoke OK: {len(jobs)} jobs ingested, all endpoints match "
        f"the batch path, {requests} requests over {connections} "
        f"connection(s), clean SIGTERM drain, events in {events}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
