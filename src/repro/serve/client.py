"""A small stdlib client for the trace-analytics service.

Wraps :mod:`http.client` around the JSON endpoints of
:class:`repro.serve.server.TraceService`, one method per endpoint.
Used by the load generators (``benchmarks/bench_serve.py`` and
``bench/serve_workload.py``), the CI smoke job and the concurrency
tests -- anything that talks to the service the way an external
consumer would.

Connections persist (HTTP/1.1 keep-alive).  A client keeps one
connection per calling thread, so a client shared by several threads
stays parallel and never interleaves two exchanges on one socket.  A
connection is kept only after a response was read to its end and did
not say ``Connection: close``; any failure during an exchange (a
timeout, a reset, a body that is not JSON) throws it away.  Before a
kept connection is reused it is probed without blocking: a readable
idle socket means the server closed it (its idle timeout or its drain)
or sent bytes no request asked for, and the client connects again.
A thread's kept connection is closed when the thread ends;
:meth:`ServeClient.close` closes those of live threads.

One ``timeout`` bounds the TCP handshake and each response.  Transient
failures -- connection refused/reset, dropped connections, 5xx
responses -- are retried with the exponential backoff and seeded
jitter of the module constants below, so retry schedules reproduce.
4xx responses and timeouts on an established connection are never retried:
the former are caller bugs, and the latter may have already mutated
server state.  Nothing else re-sends a request: a request that was
written and then failed is retried only within ``retries``, so
``retries=0`` means one attempt, and an ingest is never posted twice
without the caller knowing.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import threading
import time
import urllib.parse
import weakref
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..trace.schema import JobRecord
from .server import serialize_jobs

__all__ = ["ServeClient", "ServiceError", "TRANSIENT_ERRORS"]

#: Connection-level failures that are safe to retry: the request either
#: never reached the service or the service died before answering.
TRANSIENT_ERRORS: Tuple[type, ...] = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    http.client.RemoteDisconnected,
)


#: Retry ``k`` (zero-based) sleeps ``min(BACKOFF_CAP, BACKOFF_BASE *
#: 2**k)`` seconds, stretched by up to 25% jitter from a random stream
#: each client seeds with ``JITTER_SEED``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
JITTER_SEED = 0


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status

    @property
    def transient(self) -> bool:
        """Whether the failure is server-side and worth retrying."""
        return self.status >= 500


class _Kept:
    """A thread's kept connection.  It lives in the thread's slot of the
    client's ``threading.local``, so its finalizer closes the connection
    when the thread ends, unless :meth:`close` did so sooner."""

    __slots__ = ("connection", "close", "__weakref__")

    def __init__(self, connection: http.client.HTTPConnection) -> None:
        self.connection = connection
        self.close = weakref.finalize(self, connection.close)


class ServeClient:
    """Blocking JSON client for one service base URL.

    Each calling thread gets its own persistent connection, opened on
    its first request and reused while the server keeps it open; it is
    closed when the thread ends, and :meth:`close` closes them all.

    Parameters
    ----------
    timeout:
        Seconds to wait for the TCP connection to be established, and
        then for each response on it.
    retries:
        Additional attempts after the first failed one; ``0`` disables
        retrying entirely.
    sleep:
        Injectable sleep function (tests pass a recorder).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        retries: int = 3,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ValueError(f"expected an http:// base URL, got {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self._prefix = parsed.path
        self.timeout = timeout
        self.retries = retries
        self._jitter = random.Random(JITTER_SEED)
        self._sleep = sleep
        # The calling thread's kept connection, as ``.kept``.
        self._local = threading.local()
        # Every thread's kept connection, for close(); weak, so that a
        # thread's holder goes with the thread.
        self._kept: "weakref.WeakSet[_Kept]" = weakref.WeakSet()
        self._kept_lock = threading.Lock()

    def close(self) -> None:
        """Close every connection the client keeps, in any thread.

        Call it with no request in flight.  The client stays usable: a
        later request opens a new connection.
        """
        with self._kept_lock:
            kept = list(self._kept)
            self._kept.clear()
        for holder in kept:
            holder.close()

    # ---- transport -------------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        """The sleep before retry ``attempt`` (zero-based), with jitter."""
        base = min(BACKOFF_CAP, BACKOFF_BASE * (2.0**attempt))
        return base * (1.0 + 0.25 * self._jitter.random())

    def _connect(self) -> http.client.HTTPConnection:
        """The calling thread's kept connection if the server has left
        it open, else a new one."""
        kept = getattr(self._local, "kept", None)
        if kept is not None:
            # An idle kept socket with something to read was closed by
            # the server, or holds bytes no request asked for.
            sock = kept.connection.sock
            if sock is not None and not select.select([sock], [], [], 0)[0]:
                return kept.connection
            self._drop()
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )
        try:
            connection.connect()
        except BaseException:
            connection.close()
            raise
        kept = _Kept(connection)
        self._local.kept = kept
        with self._kept_lock:
            self._kept.add(kept)
        return connection

    def _drop(self) -> None:
        """Close the calling thread's kept connection for good."""
        kept, self._local.kept = self._local.kept, None
        with self._kept_lock:
            self._kept.discard(kept)
        kept.close()

    def _request_once(
        self, path: str, body: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        connection = self._connect()
        try:
            connection.request(
                "POST" if body is not None else "GET",
                self._prefix + path,
                body=(
                    json.dumps(body).encode("utf-8")
                    if body is not None
                    else None
                ),
                headers=(
                    {"Content-Type": "application/json"}
                    if body is not None
                    else {}
                ),
            )
            response = connection.getresponse()
            text = response.read().decode("utf-8", errors="replace")
        except BaseException:
            self._drop()
            raise
        try:
            payload = json.loads(text)
        except ValueError:
            # Not the service's JSON: the connection is out of step.
            self._drop()
            if 200 <= response.status < 300:
                raise
            raise ServiceError(response.status, text) from None
        if response.will_close:
            self._drop()
        if not 200 <= response.status < 300:
            message = (
                payload.get("error", text) if isinstance(payload, dict) else text
            )
            raise ServiceError(response.status, message)
        return payload

    def _request(
        self, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        attempt = 0
        while True:
            try:
                return self._request_once(path, body)
            except ServiceError as error:
                if not error.transient or attempt >= self.retries:
                    raise
            except TRANSIENT_ERRORS:
                if attempt >= self.retries:
                    raise
            self._sleep(self.backoff_delay(attempt))
            attempt += 1

    # ---- endpoints -------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Liveness and progress counters."""
        return self._request("/healthz")

    def stats(self) -> Dict[str, Any]:
        """Merged population aggregates at both levels."""
        return self._request("/stats")

    def census(self) -> Dict[str, Any]:
        """Bottleneck-label population shares."""
        return self._request("/census")

    def cdf(
        self, metric: str, level: str = "job", points: int = 50
    ) -> Dict[str, Any]:
        """The sketched CDF of one metric."""
        return self._request(f"/cdf/{metric}?level={level}&points={points}")

    def ingest(self, jobs: Sequence[JobRecord]) -> Dict[str, Any]:
        """Append a batch of job records to the live population.

        Raises ``ServiceError`` with status 409 if the population
        already holds one of the batch's ids.  That includes a retried
        attempt whose first attempt the service had applied before the
        connection dropped or it answered 5xx: the batch is then in the
        population once, and the 409 cannot tell that apart from a
        conflict with another writer's batch.
        """
        return self._request("/ingest", body=serialize_jobs(jobs))
