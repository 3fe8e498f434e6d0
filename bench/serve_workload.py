"""``serve_mixed``: reads beside writes on the resident service.

``pai-repro serve`` runs in a subprocess with an empty on-disk query
cache; this process is its only client, with two threads (one per
core) and one connection per request.  A session starts a service,
preloads 2,000 jobs, then runs two phases with the same request mix:

* phase A, an open loop at 50 requests/s.  Each request is timed from
  when it was due, so a stall also charges the requests queued behind
  it;
* phase B, a closed loop: each thread sends its next request as soon as
  the previous one returns.

The mix is exact in every block of ten requests: one ``POST /ingest``
of the next 100 jobs and nine reads, which rotate over ``/stats``,
``/census``, ``/cdf/step_time?points=20`` and ``/cdf/<metric>``.  The
seed places the ingest within its block, picks each ``<metric>`` and
generates the jobs.  A random mix would change the share of ingests,
the expensive requests, from seed to seed, and with it every latency.

Every ingest invalidates the merged snapshot and the query cache, so
the reads that follow pay for a re-merge: a change that speeds reads at
the cost of ingest, or the reverse, shows.  It is the only workload
that exercises ``repro.serve``.

A run repeats the identical session :data:`SESSIONS` times, each on a
fresh service, and reports the median phase-A read latency and the
phase-B rate over all sessions.

The read latency is taken to the reference host's speed, but not by the
pure-Python probe the other workloads use (``timing.HostClock``): a
request crosses two processes and several threads, and on a shared host
its latency swung by 1.5x while the probe moved by 1.15x.  Instead the
same two threads send a request to ``bench/echo_server.py`` after
every second phase-A request, and each session's read latencies are
multiplied by :data:`REFERENCE_ECHO_S` over that session's median echo
latency.  The echo server runs no code of this repository, so a change
to the service or its client still moves the reported latency.  Over
thirty sessions the echo latency followed the read latency with a
correlation of 0.85 and scaling halved their spread.

Phase B's rate is reported as measured: requests completed over the
seconds they took, summed over the sessions.  Echo requests sent during
a saturating loop would wait for the service's own work, so scaling by
them would hide part of a slowdown.  Over four sets of ten runs,
scaling each session's rate by the probes around it and taking the
median session left spreads of 10% to 24% of the median, against 6% to
18% for the summed rate as measured.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple
from urllib.parse import urlsplit

from serve_host import ENDPOINTS
from timing import (
    BenchError,
    Outcome,
    Recorder,
    median,
    nearest_rank,
    peak_rss_mb,
    ratio,
    self_time_tree,
    tail_percentile,
)

PRELOAD_JOBS = 2000
INGEST_BATCH = 100
#: One ingest per block of this many requests.
BLOCK = 10
#: Reads in rotation; ``None`` stands for the next of the CDF metrics,
#: which rotate in an order the seed shuffles.
READS = (("stats",), ("census",), ("cdf", "step_time", 20), ("cdf", None, 50))
#: Phase A's rate of requests to the service.  Two client threads
#: complete 150 to 300 requests/s on the reference host, depending on
#: its speed,
#: so at 100 requests/s a slow minute pushed them near saturation and
#: the 90th-percentile read went from 5 ms to 250 ms, all of it
#: queueing; at 50 requests/s it stayed between 5 and 12 ms.
OPEN_LOOP_RATE = 50.0
#: Phase A sends one echo request after every this many requests.
ECHO_EVERY = 2
#: Median echo latency on the reference host at its usual speed.
REFERENCE_ECHO_S = 0.0013
#: Phase A's share of a session's time; phase B gets the rest at
#: about :data:`CLOSED_LOOP_RATE` requests/s on the reference host.
#: Phase B's rate swings more from second to second than phase A's
#: median, so it gets the larger share of requests.
OPEN_SHARE = 0.5
CLOSED_LOOP_RATE = 300.0
SESSIONS = 3
#: Untraced/traced session pairs in a traced run.
TRACED_PAIRS = 2
CLIENT_THREADS = 2
STOP_TIMEOUT_S = 30.0

#: Quantile drift allowed once sketches have compacted (population above
#: the per-sketch capacity); everything else must agree to 1e-9.  The
#: same tolerances as ``benchmarks/bench_serve.py``.
SKETCH_RTOL = 0.02


def plan_requests(seed: int, count: int) -> List[tuple]:
    """The request mix: ``("ingest",)``, ``("stats",)``, ``("census",)``
    or ``("cdf", metric, points)``, drawn from ``seed``."""
    from repro.serve import CDF_METRICS

    rng = random.Random(seed)
    metrics = list(CDF_METRICS)
    rng.shuffle(metrics)
    plan: List[tuple] = []
    reads = 0
    while len(plan) < count:
        ingest_at = rng.randrange(BLOCK)
        for slot in range(BLOCK):
            if slot == ingest_at:
                plan.append(("ingest",))
                continue
            read = READS[reads % len(READS)]
            if read == READS[-1]:
                read = ("cdf", metrics[reads // len(READS) % len(metrics)], read[2])
            reads += 1
            plan.append(read)
    return plan[:count]


def with_echoes(plan: List[tuple]) -> List[tuple]:
    """``plan`` with an ``("echo",)`` request after every
    :data:`ECHO_EVERY` requests."""
    mixed: List[tuple] = []
    for index, request in enumerate(plan, start=1):
        mixed.append(request)
        if index % ECHO_EVERY == 0:
            mixed.append(("echo",))
    return mixed


class Server:
    """A subprocess that prints ``serving on URL`` once it listens;
    ``stop()`` drains it with SIGTERM."""

    def __init__(self, ctx, command: List[str], layers_path: Optional[Path] = None) -> None:
        self.layers_path = layers_path
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=ctx.env(), cwd=ctx.root
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise BenchError(f"{' '.join(command[1:4])} did not start: {line!r}")
        self.url = line.split()[-1]

    @classmethod
    def service(cls, ctx, traced: bool) -> "Server":
        """``pai-repro serve``, or with ``traced`` the same service
        built through timed subclasses (``serve_host.py``) from the same
        arguments."""
        serve_args = ["--cache-dir", str(ctx.fresh_dir("serve-cache")), "-q"]
        if not traced:
            return cls(ctx, [sys.executable, "-m", "repro.analysis.cli", "serve", *serve_args])
        layers_path = ctx.fresh_dir("serve-layers") / "layers.json"
        command = [
            sys.executable, str(Path(__file__).with_name("serve_host.py")),
            "--layers", str(layers_path), *serve_args,
        ]
        return cls(ctx, command, layers_path)

    @classmethod
    def echo(cls, ctx) -> "Server":
        return cls(ctx, [sys.executable, str(Path(__file__).with_name("echo_server.py"))])

    def stop(self) -> None:
        if self.process.stdout.closed:
            return
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        if self.process.returncode != 0:
            raise BenchError(f"server exited with code {self.process.returncode}")

    def layers(self) -> dict:
        return json.loads(self.layers_path.read_text(encoding="utf-8"))


@dataclass
class Phase:
    wall_s: float
    #: ``(plan index, kind, latency)`` per completed request.
    samples: List[tuple] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def latencies(self, kind: str) -> List[float]:
        """Latencies of ``"read"`` (every read endpoint), ``"ingest"``
        or ``"echo"`` requests."""
        return [
            latency
            for _, request, latency in self.samples
            if (request if request in ("ingest", "echo") else "read") == kind
        ]

    @property
    def requests(self) -> int:
        """Requests to the service (echo requests excluded)."""
        return len(self.samples) - len(self.latencies("echo"))

    @property
    def rate(self) -> float:
        return self.requests / self.wall_s


def pooled(phases: List[Phase], kind: str) -> List[float]:
    return [latency for phase in phases for latency in phase.latencies(kind)]


def reference_reads(phase: Phase) -> List[float]:
    """``phase``'s read latencies at the reference host's speed, by its
    median echo latency."""
    scale = REFERENCE_ECHO_S / median(phase.latencies("echo"))
    return [latency * scale for latency in phase.latencies("read")]


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(percentile, value)`` at the highest percentile that leaves ten
    samples beyond it (the median when none does)."""
    percentile = tail_percentile(len(samples)) or 50.0
    return percentile, nearest_rank(samples, percentile)


def describe(kind: str, samples: List[float]) -> str:
    """Count, median and tail of ``samples``; no tail when fewer than
    ten samples lie beyond even the median."""
    text = f"{len(samples)} {kind} p50 {median(samples) * 1e3:.3f} ms"
    percentile, value = tail(samples)
    if percentile > 50:
        text += f", p{percentile:g} {value * 1e3:.3f} ms"
    return text


def describe_open_loop(phases: List[Phase]) -> str:
    """Phase A's latencies as measured, and how late the load generator
    sent its requests."""
    late = nearest_rank([late for phase in phases for late in phase.late_s], 99.0)
    return (
        f"phase A over {len(phases)} sessions, as measured: "
        f"{describe('reads', pooled(phases, 'read'))}; "
        f"{describe('ingests', pooled(phases, 'ingest'))}; "
        f"{describe('echoes', pooled(phases, 'echo'))}; "
        f"sent late by {late * 1e3:.3f} ms at p99"
    )


def echo(address: Tuple[str, int]) -> dict:
    """One request to the echo server, on its own connection."""
    connection = http.client.HTTPConnection(*address, timeout=STOP_TIMEOUT_S)
    try:
        connection.request("GET", "/")
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise BenchError(f"echo server answered {response.status}")
        return json.loads(body)
    finally:
        connection.close()


class Session:
    """The client side of one service: ingest cursor, timing, checks."""

    def __init__(self, url: str, jobs: list) -> None:
        from repro.serve import ServeClient

        self.url = url
        self.jobs = jobs
        self.cursor = 0
        #: Seconds spent in requests to the service.
        self.client_s = 0.0
        self._lock = threading.Lock()
        self.client = ServeClient(url, retries=0)
        #: ``(host, port)`` of the echo server, for ``("echo",)`` requests.
        self.echo_address: Optional[Tuple[str, int]] = None

    def _batch(self, size: int) -> list:
        with self._lock:
            start = self.cursor
            self.cursor += size
        if self.cursor > len(self.jobs):
            raise BenchError("ingest plan ran past the generated trace")
        return self.jobs[start : start + size]

    def call(self, client, request: tuple) -> dict:
        """Send one request to the service; returns the payload."""
        start = time.perf_counter()
        try:
            if request[0] == "ingest":
                size = request[1] if len(request) > 1 else INGEST_BATCH
                return client.ingest(self._batch(size))
            if request[0] == "cdf":
                return client.cdf(request[1], points=request[2])
            return getattr(client, request[0])()
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.client_s += elapsed

    def drive(self, plan: List[tuple], rate: Optional[float]) -> Phase:
        """Send ``plan`` from :data:`CLIENT_THREADS` threads: on a fixed
        schedule at ``rate`` requests/s, or back to back (closed loop)."""
        from repro.serve import ServeClient

        next_index = [0]
        index_lock = threading.Lock()
        phase = Phase(wall_s=0.0)
        start = time.perf_counter()

        def worker() -> None:
            client = ServeClient(self.url, retries=0)
            floor = 0
            while True:
                with index_lock:
                    index = next_index[0]
                    next_index[0] += 1
                if index >= len(plan):
                    return
                request = plan[index]
                due = start + index / rate if rate else None
                if due is not None:
                    time.sleep(max(0.0, due - time.perf_counter()))
                sent = time.perf_counter()
                try:
                    if request[0] == "echo":
                        payload = echo(self.echo_address)
                    else:
                        payload = self.call(client, request)
                except Exception as error:  # every failure is reported below
                    with index_lock:
                        phase.failures.append(f"{request}: {error!r}")
                    continue
                done = time.perf_counter()
                with index_lock:
                    if request[0] not in ("ingest", "echo"):
                        if payload["jobs"] < floor:
                            phase.failures.append(
                                f"job count went backwards: {payload['jobs']} < {floor}"
                            )
                        floor = payload["jobs"]
                    phase.samples.append(
                        (index, request[0], done - (due if due is not None else sent))
                    )
                    if due is not None:
                        phase.late_s.append(sent - due)

        threads = [threading.Thread(target=worker) for _ in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall_s = time.perf_counter() - start
        if phase.failures:
            raise BenchError(
                f"{len(phase.failures)} of {len(plan)} requests failed: {phase.failures[:3]}"
            )
        return phase

    def verify(self, reference: dict) -> None:
        """The drained service's aggregates against ``reference``, the
        batch path's (``batch_reference``) over the ingested jobs."""
        from repro.serve import CDF_METRICS, payload_leaves
        from repro.serve.stats import DEFAULT_SKETCH_CAPACITY

        stats = self.call(self.client, ("stats",))
        served = {key: stats[key] for key in ("jobs", "cnodes", "architectures", "fractions", "hardware_shares")}
        served["census"] = self.call(self.client, ("census",))["census"]
        served["quantiles"] = {
            metric: self.call(self.client, ("cdf", metric, 2))["quantiles"]
            for metric in CDF_METRICS
        }
        exact = self.cursor <= DEFAULT_SKETCH_CAPACITY
        got_leaves, want_leaves = payload_leaves(served), payload_leaves(reference)
        if [p for p, _ in got_leaves] != [p for p, _ in want_leaves]:
            raise BenchError("served and batch payloads differ in shape")
        for (path, got), (_, want) in zip(got_leaves, want_leaves):
            tolerance = SKETCH_RTOL if path.startswith("quantiles.") and not exact else 1e-9
            if isinstance(want, float):
                if not math.isclose(got, want, rel_tol=tolerance, abs_tol=1e-12):
                    raise BenchError(f"serve/batch drift at {path}: {got!r} vs {want!r}")
            elif got != want:
                raise BenchError(f"serve/batch mismatch at {path}: {got!r} vs {want!r}")


@dataclass
class ServeInputs:
    jobs: list
    server: Server
    session: Session
    generate_s: float


@dataclass
class Run:
    """One finished session: its service, client side and phases."""

    server: Server
    session: Session
    open_loop: Phase
    closed_loop: Phase

    @property
    def requests(self) -> int:
        return self.open_loop.requests + self.closed_loop.requests


def closed_loop_rate(runs: List[Run]) -> float:
    """Phase-B requests completed per second over all of ``runs``."""
    return sum(run.closed_loop.requests for run in runs) / sum(
        run.closed_loop.wall_s for run in runs
    )


class ServeWorkload:
    name = "serve_mixed"
    seeded = True

    @staticmethod
    def plans(seed: int, session_s: float) -> Tuple[List[tuple], List[tuple]]:
        """Phase A's and phase B's requests for a session of ``session_s``."""
        opened = round(OPEN_SHARE * session_s * OPEN_LOOP_RATE)
        closed = round((1 - OPEN_SHARE) * session_s * CLOSED_LOOP_RATE)
        plan = plan_requests(seed, opened + closed)
        return plan[:opened], plan[opened:]

    def _start(self, ctx, jobs: list, traced: bool):
        server = Server.service(ctx, traced)
        try:
            session = Session(server.url, jobs)
            session.call(session.client, ("ingest", PRELOAD_JOBS))
            if session.call(session.client, ("healthz",))["jobs"] != PRELOAD_JOBS:
                raise BenchError("preloaded jobs missing from /healthz")
        except BaseException:
            server.stop()
            raise
        return server, session

    def setup(self, ctx) -> ServeInputs:
        from repro.trace import generate_trace

        open_plan, closed_plan = self.plans(ctx.seed, ctx.seconds / SESSIONS)
        ingests = sum(request[0] == "ingest" for request in open_plan + closed_plan)
        start = time.perf_counter()
        jobs = generate_trace(num_jobs=PRELOAD_JOBS + INGEST_BATCH * ingests, seed=ctx.seed)
        generate_s = time.perf_counter() - start
        server, session = self._start(ctx, jobs, traced=False)
        return ServeInputs(jobs, server, session, generate_s)

    def close(self, inputs: ServeInputs) -> None:
        inputs.server.stop()

    def _sessions(self, inputs: ServeInputs, ctx, traced: List[bool]) -> List[Run]:
        """One verified session per flag, each on a fresh service (the
        first on the set-up one, which is untraced)."""
        from repro.serve import batch_reference

        open_plan, closed_plan = self.plans(ctx.seed, ctx.seconds / SESSIONS)
        open_plan = with_echoes(open_plan)
        open_rate = OPEN_LOOP_RATE * (1 + 1 / ECHO_EVERY)
        echo_server = Server.echo(ctx)
        parts = urlsplit(echo_server.url)
        runs = []
        reference = None
        server, session = inputs.server, inputs.session
        try:
            for index, flag in enumerate(traced):
                if index:
                    server, session = self._start(ctx, inputs.jobs, flag)
                session.echo_address = (parts.hostname, parts.port)
                try:
                    open_loop, _ = ctx.clock.measure(session.drive, open_plan, open_rate)
                    closed_loop, _ = ctx.clock.measure(session.drive, closed_plan, None)
                    if reference is None:
                        # Every session ingests the same jobs.
                        reference = batch_reference(inputs.jobs[: session.cursor])
                    session.verify(reference)
                finally:
                    server.stop()
                runs.append(Run(server, session, open_loop, closed_loop))
        finally:
            echo_server.stop()
        return runs

    def measure(self, inputs: ServeInputs, ctx):
        runs = self._sessions(inputs, ctx, [False] * SESSIONS)
        opened = [run.open_loop for run in runs]
        reads = [latency for phase in opened for latency in reference_reads(phase)]
        return Outcome(
            {
                "latency_ms": median(reads) * 1e3,
                "throughput_per_s": closed_loop_rate(runs),
                "peak_rss_mb": peak_rss_mb(children=True),
            },
            attempted=sum(run.requests for run in runs),
            lines=[
                describe_open_loop(opened),
                f"phase A reads at the reference speed: {describe('reads', reads)}",
                f"phase B: {runs[0].closed_loop.requests} requests a session at "
                + ", ".join(f"{run.closed_loop.rate:.1f}" for run in runs)
                + " requests/s",
            ],
        )

    def measure_traced(self, inputs: ServeInputs, ctx):
        # Untraced and traced sessions alternate on the same plan.
        runs = self._sessions(inputs, ctx, [False, True] * TRACED_PAIRS)
        plain, traced = runs[0::2], runs[1::2]
        per_session = [self._layers(run) for run in traced]
        metrics = {name: median(m[name] for m in per_session) for name in per_session[0]}
        metrics["trace_overhead_ratio"] = closed_loop_rate(plain) / closed_loop_rate(traced)
        client_s = median(run.session.client_s for run in traced)
        return Outcome(
            metrics,
            attempted=sum(run.requests for run in runs),
            lines=[
                self._tree(client_s, metrics),
                "untraced " + describe_open_loop([run.open_loop for run in plain]),
            ],
        )

    @staticmethod
    def _layers(run: Run) -> dict:
        """The per-layer metrics of one traced session: calls, and
        seconds as a share of the session's summed client time."""
        layers = Recorder.load(run.server.layers())
        client_s = run.session.client_s
        metrics = {}
        names = [f"serve.server.{e}" for e in ENDPOINTS]
        names += ["serve.state.snapshot", "serve.state.ingest", "serve.stats.merge"]
        for name in names:
            metrics[f"{name}_calls"] = layers.calls(name)
            metrics[f"{name}_share"] = layers.total_s(name) / client_s
        handled = sum(layers.total_s(f"serve.server.{e}") for e in ENDPOINTS)
        metrics["serve.transport_share"] = (client_s - handled) / client_s
        loads = layers.calls("serve.cache.load")
        metrics["serve.cache.hit_ratio"] = ratio(loads - layers.failures("serve.cache.load"), loads)
        metrics["serve.cache.load_share"] = layers.total_s("serve.cache.load") / client_s
        metrics["serve.cache.store_share"] = layers.total_s("serve.cache.store") / client_s
        return metrics

    def _tree(self, client_s: float, metrics: dict) -> str:
        def share(name: str) -> float:
            return metrics[f"{name}_share"]

        handled = sum(share(f"serve.server.{e}") for e in ENDPOINTS)
        nested = ("serve.state.snapshot", "serve.state.ingest", "serve.cache.load", "serve.cache.store")
        rows = [
            (0, "serve.transport", share("serve.transport")),
            (0, "serve.server (self)", handled - sum(share(name) for name in nested)),
            (1, "serve.state.snapshot (self)", share("serve.state.snapshot") - share("serve.stats.merge")),
            (2, "serve.stats.merge", share("serve.stats.merge")),
            (1, "serve.state.ingest", share("serve.state.ingest")),
            (1, "serve.cache.load", share("serve.cache.load")),
            (1, "serve.cache.store", share("serve.cache.store")),
        ]
        return self_time_tree(f"{self.name} traced service, summed client time", client_s, rows)


SERVE = ServeWorkload()
