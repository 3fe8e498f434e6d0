"""The resident trace-analytics service: a concurrent JSON query API.

A :class:`TraceService` owns the sharded population state and exposes it
over a stdlib ``ThreadingHTTPServer`` -- one handler thread per
connection, many concurrent readers, none of them blocking ingestion
(reads work on merged copy-on-write snapshots; see
:mod:`repro.serve.state`).

Endpoints (all JSON):

==========================  =============================================
``GET /healthz``            liveness, job/generation counters, uptime
``GET /stats``              merged population aggregates at both levels
``GET /cdf/<metric>``       sketched CDF of one metric
                            (``?level=job|cnode&points=N``)
``GET /census``             bottleneck-label population shares
``POST /ingest``            append a batch of serialized job records;
                            409 if it repeats an ingested job id
==========================  =============================================

Query responses are content-addressed into the existing
:class:`repro.runtime.cache.ResultCache` keyed by (endpoint, params,
per-shard content-digest vector, and the fingerprint of the one model
configuration, hashed at import), so a hot query at an unchanged
generation is served without re-merging or re-rendering.  The digests
identify the ingested data itself -- two service runs over different
traces can never alias, even at identical batch counts -- and each store
evicts the entry it supersedes so a long-lived service keeps at most one
live entry per (endpoint, params).

Connections persist (HTTP/1.1): one connection carries request after
request until the client closes it or asks to (``Connection: close``,
or HTTP/1.0), it idles for the handler's ``timeout``, or the service
drains.  A request whose body the handler will not read in full (a
413, a malformed or missing ``Content-Length``, a chunked body) is
answered and its connection closed, so those bytes are never parsed as
the next request.

Shutdown is graceful: :meth:`TraceService.stop` stops accepting new
connections, ends every connection that is waiting for its next
request, lets every request already being read finish with a complete
response that carries ``Connection: close``, and joins every handler
thread before returning.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Set, Tuple
from urllib.parse import parse_qsl, urlsplit

from ..analysis.result import ExperimentResult
from ..core.efficiency import PAPER_DEFAULT_EFFICIENCY
from ..core.hardware import pai_default_hardware
from ..core.timemodel import PAPER_MODEL_OPTIONS
from ..obs import ERROR, WARNING, get_obs
from ..runtime.cache import ResultCache
from ..runtime.fingerprint import fingerprint
from ..trace.schema import JobRecord
from ..trace.serialization import job_from_dict, job_to_dict
from .replay import TraceReplayer
from .state import DuplicateJobError, ShardedState, StatsSnapshot
from .stats import AGGREGATION_LEVELS, CDF_METRICS, DEFAULT_SKETCH_CAPACITY

__all__ = ["MAX_INGEST_BYTES", "QueryError", "TraceService", "serialize_jobs"]

#: Request body cap for ``POST /ingest`` (guards the resident process
#: against one unbounded request, not a real security boundary).
MAX_INGEST_BYTES = 64 * 1024 * 1024

#: How often the accept loop checks for a shutdown request: the most a
#: ``stop()`` waits for the loop to notice.
_SHUTDOWN_POLL_S = 0.05

#: The longest request line a handler reads, as ``http.server`` allows.
_MAX_REQUEST_LINE = 65536

#: The model configuration every shard evaluates under, hashed once: the
#: last part of every query-cache key.
_MODEL_CONFIG_FINGERPRINT = fingerprint(
    pai_default_hardware(),
    PAPER_DEFAULT_EFFICIENCY,
    PAPER_MODEL_OPTIONS,
    {"sketch_capacity": DEFAULT_SKETCH_CAPACITY},
)


class QueryError(Exception):
    """A client error with the HTTP status it should produce."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler: reads requests one after another, routes
    each to the service and writes its JSON answer."""

    protocol_version = "HTTP/1.1"
    server_version = "pai-repro-serve"
    # Seconds a connection may idle between requests (or stall inside
    # one) before its handler closes it.
    timeout = 30
    # Each response leaves in one write (a buffered wfile that _respond
    # flushes) and at once: with Nagle's algorithm on, a second small
    # write waits for the client's delayed ACK, ~40 ms on Linux.
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args: Any) -> None:
        get_obs().debug("serve.http " + fmt % args)

    def handle(self) -> None:
        """Answer this connection's requests until it is to be closed."""
        get_obs().metrics.counter("serve.connections").inc()
        self.close_connection = False
        while not self.close_connection:
            self._handle_one()

    def _handle_one(self) -> None:
        """Wait for the connection's next request and answer it."""
        server: _Server = self.server  # type: ignore[assignment]
        self.close_connection = True
        if not server.mark_idle(self.connection):
            return
        try:
            line = self.rfile.readline(_MAX_REQUEST_LINE + 1)
        except OSError:  # the idle timeout, or the client reset
            return
        finally:
            server.mark_busy(self.connection)
        if not line:
            return
        self.raw_requestline = line
        if len(line) > _MAX_REQUEST_LINE:
            self.requestline = self.request_version = self.command = ""
            self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            return
        try:
            if not self.parse_request():
                return
        except OSError:  # the client stalled or reset inside its headers
            self.close_connection = True
            return
        if self.command not in ("GET", "POST"):
            self.send_error(
                HTTPStatus.NOT_IMPLEMENTED,
                f"Unsupported method ({self.command!r})",
            )
            return
        self._handle()

    def _respond(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        if self.server.draining:  # type: ignore[attr-defined]
            self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except OSError:
            # The client went away mid-response; nothing to salvage.
            get_obs().metrics.counter("serve.query.aborted").inc()
            self.close_connection = True
            # Closing drops what the failed write left buffered, so the
            # handler's finish() has nothing left to send; it raises
            # that failure once more.
            with contextlib.suppress(OSError):
                self.wfile.close()

    def _read_body(self) -> bytes:
        """A POST's body, framed by its ``Content-Length``.

        Raises :class:`QueryError` when the body cannot be read in full;
        the caller then closes the connection, since the unread bytes
        would otherwise be parsed as the next request.
        """
        raw_length = self.headers.get("Content-Length")
        if raw_length is None or "Transfer-Encoding" in self.headers:
            raise QueryError(
                411, "POST requires a Content-Length header (no chunked bodies)"
            )
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise QueryError(400, f"invalid Content-Length: {raw_length!r}")
        if length > MAX_INGEST_BYTES:
            raise QueryError(413, "ingest body too large")
        # parse_request answered "Expect: 100-continue" into the buffer;
        # such a client sends its body only after that answer.
        self.wfile.flush()
        body = self.rfile.read(length)
        if len(body) < length:
            raise QueryError(
                400, f"body ended after {len(body)} of {length} bytes"
            )
        return body

    def _handle(self) -> None:
        service: "TraceService" = self.server.service  # type: ignore[attr-defined]
        method = self.command
        split = urlsplit(self.path)
        params = dict(parse_qsl(split.query))
        body: Optional[bytes] = None
        if method == "POST":
            try:
                body = self._read_body()
            except QueryError as error:
                self.close_connection = True
                self._respond(error.status, {"error": str(error)})
                return
            except OSError:  # the client stalled or reset inside its body
                self.close_connection = True
                return
        elif "Transfer-Encoding" in self.headers or self.headers.get(
            "Content-Length", "0"
        ) != "0":
            # A body no endpoint reads would be parsed as the next request.
            self.close_connection = True
        obs = get_obs()
        obs.metrics.counter("serve.query.requests").inc()
        status = 200
        try:
            with obs.trace("serve.query", method=method, path=split.path):
                payload = service.handle(method, split.path, params, body)
        except QueryError as error:
            status = error.status
            payload = {"error": str(error)}
        except Exception as error:  # a broken query must not kill the thread
            obs.error(
                "serve.query.crashed", path=split.path, exception=repr(error)
            )
            status = 500
            payload = {"error": f"internal error: {error}"}
        if status != 200:
            obs.metrics.counter("serve.query.errors").inc()
        self._respond(status, payload)


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer that drains: it ends idle connections and
    joins its handler threads on close."""

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address, service: "TraceService") -> None:
        super().__init__(address, _Handler)
        self.service = service
        #: Set by :meth:`drain`; every answer from then on carries
        #: ``Connection: close``.
        self.draining = False
        # Connections whose handler waits for the next request line: the
        # only ones the drain ends without an answer.
        self._idle: Set[socket.socket] = set()
        self._idle_lock = threading.Lock()

    def mark_idle(self, connection: socket.socket) -> bool:
        """Mark ``connection`` idle until :meth:`mark_busy`; False once the
        service drains, when the handler must close it instead."""
        with self._idle_lock:
            if self.draining:
                return False
            self._idle.add(connection)
            return True

    def mark_busy(self, connection: socket.socket) -> None:
        """``connection``'s handler has a request line (or gave up): the
        drain no longer ends it."""
        with self._idle_lock:
            self._idle.discard(connection)

    def drain(self) -> None:
        """End every idle connection, and let busy ones end after their
        answer.

        Shutting the read side wakes a handler blocked on its next
        request line with an end of file and leaves the write side
        open, so a request line that arrived just before still gets its
        answer.
        """
        with self._idle_lock:
            self.draining = True
            for connection in self._idle:
                with contextlib.suppress(OSError):  # already closed
                    connection.shutdown(socket.SHUT_RD)
            self._idle.clear()


class TraceService:
    """The resident analytics service: state + replayer + HTTP server."""

    def __init__(
        self,
        state: Optional[ShardedState] = None,
        cache: Optional[ResultCache] = None,
        num_shards: int = 4,
    ) -> None:
        self.state = state if state is not None else ShardedState(num_shards)
        self.cache = cache
        # (endpoint, params) -> (generation, key) of the newest stored
        # cache entry, so each store can evict the one it supersedes.
        self._live_entries: Dict[
            Tuple[str, Tuple[Tuple[str, str], ...]], Tuple[int, str]
        ] = {}
        self._live_entries_lock = threading.Lock()
        self._server: Optional[_Server] = None
        self._server_thread: Optional[threading.Thread] = None
        self._replayer: Optional[TraceReplayer] = None
        self._replay_thread: Optional[threading.Thread] = None
        self._replay_done = threading.Event()
        #: What ended the last replay early, if it raised.
        self.replay_error: Optional[Exception] = None
        self._started_at: Optional[float] = None
        self._shutdown_requested = threading.Event()

    # ---- lifecycle -------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving on a background thread."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = _Server((host, port), self)
        self._started_at = time.monotonic()
        # Daemon so a crashed embedding process can still exit; graceful
        # drain comes from stop() joining this thread explicitly.
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_S},
            name="serve-http",
            daemon=True,
        )
        self._server_thread.start()
        get_obs().event(
            "serve.started",
            host=self.host,
            port=self.port,
            shards=self.state.num_shards,
        )

    @property
    def host(self) -> str:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service not started")
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        """The service base URL."""
        return f"http://{self.host}:{self.port}"

    def start_replay(self, replayer: TraceReplayer) -> None:
        """Begin streaming a trace into the state on its own thread.

        A job whose id the population already holds -- posted by a
        client before the replay reached it, or repeated in the trace
        -- is skipped with a ``serve.replay.repeated_ids`` warning, and
        the replay goes on to the end of the trace.  A replay that
        raises (a malformed trace line) sets :attr:`replay_error`, emits
        a ``serve.replay.failed`` error and requests shutdown.
        """
        if self._replay_thread is not None:
            raise RuntimeError("a replay is already running")
        self._replayer = replayer
        self._replay_done.clear()
        self.replay_error = None

        def _sink(jobs: Sequence[JobRecord]) -> None:
            _, skipped = self.state.ingest_new(jobs)
            if skipped:
                get_obs().event(
                    "serve.replay.repeated_ids",
                    level=WARNING,
                    job_id=skipped[0],
                    skipped=len(skipped),
                )

        def _run() -> None:
            try:
                replayer.replay(_sink)
            except Exception as error:
                self.replay_error = error
                get_obs().event(
                    "serve.replay.failed",
                    level=ERROR,
                    jobs=self.state.job_count,
                    exception=repr(error),
                )
                self.request_shutdown()
            finally:
                self._replay_done.set()

        self._replay_thread = threading.Thread(
            target=_run, name="serve-replay", daemon=True
        )
        self._replay_thread.start()

    @property
    def ingest_complete(self) -> bool:
        """True when the replay, if any, has ended without failing."""
        return self.replay_error is None and (
            self._replay_thread is None or self._replay_done.is_set()
        )

    def wait_for_ingest(self, timeout: Optional[float] = None) -> bool:
        """Block until the running replay finishes; True on completion."""
        if self._replay_thread is None:
            return True
        finished = self._replay_done.wait(timeout)
        if finished:
            self._replay_thread.join()
        return finished

    def request_shutdown(self) -> None:
        """Signal-handler entry point: ask the serving loop to stop."""
        self._shutdown_requested.set()

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`request_shutdown` is called."""
        return self._shutdown_requested.wait(timeout)

    def stop(self) -> None:
        """Graceful shutdown: stop ingesting, drain in-flight queries.

        Safe to call more than once.  Order matters: the replayer stops
        first (no new writes), then the listener stops accepting, then
        every connection waiting for its next request is ended, and
        ``server_close`` joins every handler thread, each of which
        finishes the request it is reading with a complete response
        (``Connection: close``), so no response is cut off mid-write.
        """
        if self._replayer is not None:
            self._replayer.stop()
        if self._replay_thread is not None:
            self._replay_thread.join()
            self._replay_thread = None
            self._replayer = None
        if self._server is None:
            return
        obs = get_obs()
        with obs.trace("serve.drain"):
            self._server.shutdown()
            if self._server_thread is not None:
                self._server_thread.join()
                self._server_thread = None
            self._server.drain()
            self._server.server_close()
        self._server = None
        obs.event(
            "serve.stopped",
            jobs=self.state.job_count,
            generation=self.state.generation,
        )

    # ---- routing ---------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        body: Optional[bytes],
    ) -> Dict[str, Any]:
        """Dispatch one request; returns the JSON payload or raises."""
        parts = [part for part in path.split("/") if part]
        if method == "GET":
            if parts == ["healthz"]:
                return self._healthz()
            if parts == ["stats"]:
                return self._cached("stats", params, self._stats)
            if parts == ["census"]:
                return self._cached("census", params, self._census)
            if len(parts) == 2 and parts[0] == "cdf":
                params = dict(params, metric=parts[1])
                return self._cached("cdf", params, self._cdf)
            raise QueryError(404, f"unknown endpoint: GET {path}")
        if method == "POST":
            if parts == ["ingest"]:
                return self._ingest(body)
            raise QueryError(404, f"unknown endpoint: POST {path}")
        raise QueryError(405, f"unsupported method: {method}")

    # ---- endpoints -------------------------------------------------

    def _healthz(self) -> Dict[str, Any]:
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        # Read before the snapshot: a replay that finishes in between
        # must not be reported complete next to a count that lacks its
        # last batch.
        ingest_complete = self.ingest_complete
        # Counts come from the same snapshot view the query endpoints
        # serve, so a client alternating endpoints never sees the job
        # count move backwards while a merge is in flight.
        snapshot = self.state.snapshot()
        return {
            "status": "ok",
            "jobs": snapshot.job_count,
            "generation": snapshot.generation,
            "shards": self.state.num_shards,
            "ingest_complete": ingest_complete,
            "uptime_s": uptime,
        }

    def _cached(self, endpoint: str, params: Dict[str, str], render):
        """Serve a read endpoint through the content-addressed cache.

        The key covers the endpoint, its parameters, the per-shard
        content-digest vector and the model-config fingerprint, so an
        entry can never be served for a population it does not describe
        -- the same validity-by-construction argument the experiment
        cache makes.  The digests hash the ingested jobs themselves:
        a different trace produces different keys even when its shards
        reach identical batch counts, which keeps a shared persistent
        cache dir safe across service runs.

        Storing a new generation's entry evicts the one it supersedes
        for the same (endpoint, params), so live ingestion leaves at
        most one entry per query shape behind instead of one per batch.
        """
        snapshot = self.state.snapshot()
        obs = get_obs()
        if self.cache is None:
            return render(snapshot, params)
        key = fingerprint(
            {
                "serve": endpoint,
                "params": sorted(params.items()),
                "versions": list(snapshot.versions),
                "digests": list(snapshot.digests),
            },
            _MODEL_CONFIG_FINGERPRINT,
        )
        hit = self.cache.load(key)
        if hit is not None:
            obs.metrics.counter("serve.query.cache_hits").inc()
            return json.loads(hit.rows[0]["payload"])
        obs.metrics.counter("serve.query.cache_misses").inc()
        payload = render(snapshot, params)
        self.cache.store(
            key,
            ExperimentResult(
                experiment=f"serve.{endpoint}",
                title=f"serve {endpoint} response",
                rows=[{"payload": json.dumps(payload, sort_keys=True)}],
                notes=[f"params={sorted(params.items())!r}"],
            ),
        )
        self._evict_superseded(endpoint, params, snapshot.generation, key)
        return payload

    def _evict_superseded(
        self,
        endpoint: str,
        params: Dict[str, str],
        generation: int,
        key: str,
    ) -> None:
        """Record ``key`` as the live entry for its query shape.

        Whatever older-generation entry it replaces is discarded from
        the cache; racing misses settle on the newest generation, and a
        loser's orphaned entry costs one file, not unbounded growth.
        """
        shape = (endpoint, tuple(sorted(params.items())))
        superseded: Optional[str] = None
        with self._live_entries_lock:
            previous = self._live_entries.get(shape)
            if previous is not None and previous[0] > generation:
                superseded = key  # we lost the race; drop our own entry
            else:
                self._live_entries[shape] = (generation, key)
                if previous is not None and previous[1] != key:
                    superseded = previous[1]
        if superseded is not None:
            self.cache.discard(superseded)

    @staticmethod
    def _level(params: Dict[str, str]) -> str:
        level = params.get("level", "job")
        if level not in AGGREGATION_LEVELS:
            raise QueryError(
                400,
                f"unknown level {level!r} (expected one of "
                f"{'/'.join(AGGREGATION_LEVELS)})",
            )
        return level

    def _stats(
        self, snapshot: StatsSnapshot, params: Dict[str, str]
    ) -> Dict[str, Any]:
        stats = snapshot.stats
        payload: Dict[str, Any] = {
            "jobs": stats.job_count,
            "cnodes": stats.cnode_total,
            "generation": snapshot.generation,
            "architectures": {
                label: stats.arch_jobs[label]
                for label in sorted(stats.arch_jobs)
            },
            "fractions": {},
            "hardware_shares": {},
        }
        if stats.job_count:
            for level in AGGREGATION_LEVELS:
                payload["fractions"][level] = stats.average_fractions(level)
                payload["hardware_shares"][level] = (
                    stats.average_hardware_shares(level)
                )
        return payload

    def _census(
        self, snapshot: StatsSnapshot, params: Dict[str, str]
    ) -> Dict[str, Any]:
        stats = snapshot.stats
        payload: Dict[str, Any] = {
            "jobs": stats.job_count,
            "generation": snapshot.generation,
            "census": {},
        }
        if stats.job_count:
            for level in AGGREGATION_LEVELS:
                payload["census"][level] = stats.census(level)
        return payload

    def _cdf(
        self, snapshot: StatsSnapshot, params: Dict[str, str]
    ) -> Dict[str, Any]:
        metric = params["metric"]
        if metric not in CDF_METRICS:
            raise QueryError(
                400,
                f"unknown metric {metric!r} (expected one of "
                f"{'/'.join(CDF_METRICS)})",
            )
        level = self._level(params)
        try:
            points = int(params.get("points", "50"))
        except ValueError:
            raise QueryError(400, "points must be an integer") from None
        if points < 2:
            raise QueryError(400, "points must be at least 2")
        stats = snapshot.stats
        payload: Dict[str, Any] = {
            "metric": metric,
            "level": level,
            "jobs": stats.job_count,
            "generation": snapshot.generation,
            "quantiles": {},
            "series": [],
        }
        if stats.job_count:
            cdf = stats.cdf(metric, level)
            payload["quantiles"] = {
                "p50": cdf.quantile(0.50),
                "p90": cdf.quantile(0.90),
                "p99": cdf.quantile(0.99),
            }
            payload["series"] = [
                [value, probability]
                for value, probability in cdf.series(points)
            ]
        return payload

    def _ingest(self, body: Optional[bytes]) -> Dict[str, Any]:
        if not body:
            raise QueryError(400, "ingest requires a JSON body")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise QueryError(400, f"invalid JSON body: {error}") from None
        records = payload.get("jobs") if isinstance(payload, dict) else None
        if not isinstance(records, list):
            raise QueryError(
                400, 'ingest body must be {"jobs": [<job records>]}'
            )
        jobs = []
        for index, record in enumerate(records):
            try:
                jobs.append(job_from_dict(record))
            except (KeyError, TypeError, ValueError) as error:
                raise QueryError(
                    400, f"invalid job record at index {index}: {error}"
                ) from None
        try:
            ingested = self.state.ingest(jobs)
        except DuplicateJobError as error:
            raise QueryError(409, str(error)) from None
        return {
            "ingested": ingested,
            "jobs": self.state.job_count,
            "generation": self.state.generation,
        }


def serialize_jobs(jobs: Sequence[JobRecord]) -> Dict[str, Any]:
    """The ``POST /ingest`` body for a batch of records."""
    return {"jobs": [job_to_dict(job) for job in jobs]}
