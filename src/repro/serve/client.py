"""A small stdlib client for the trace-analytics service.

Wraps :mod:`http.client` around the JSON endpoints of
:class:`repro.serve.server.TraceService`: one method per endpoint, plus
a readiness helper for scripts that must wait for ingestion to finish.
Used by the load generator (``benchmarks/bench_serve.py``), the CI smoke
job and the concurrency tests -- anything that talks to the service the
way an external consumer would.

The client separates the *connect* timeout (how long to wait for the
TCP handshake) from the *read* timeout (how long to wait for a
response on an established connection), and retries transient failures
-- connection refused/reset, dropped connections, 5xx responses --
with bounded exponential backoff and deterministic jitter.  4xx
responses and timeouts on an established connection are never retried:
the former are caller bugs, and the latter may have already mutated
server state.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse
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


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status

    @property
    def transient(self) -> bool:
        """Whether the failure is server-side and worth retrying."""
        return self.status >= 500


class ServeClient:
    """Blocking JSON client for one service base URL.

    Parameters
    ----------
    connect_timeout:
        Seconds to wait for the TCP connection to be established.
    read_timeout:
        Seconds to wait for the response once connected.
    retries:
        Additional attempts after the first failed one; ``0`` disables
        retrying entirely.
    backoff_base / backoff_cap:
        Attempt ``k`` (zero-based) sleeps ``min(cap, base * 2**k)``
        seconds, stretched by up to 25% deterministic jitter.
    jitter_seed:
        Seed for the jitter stream, so retry schedules reproduce.
    sleep:
        Injectable sleep function (tests pass a recorder).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_base <= 0 or backoff_cap <= 0:
            raise ValueError("backoff_base and backoff_cap must be positive")
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ValueError(f"expected an http:// base URL, got {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self._prefix = parsed.path
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.read_timeout = read_timeout if read_timeout is not None else timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._jitter = random.Random(jitter_seed)
        self._sleep = sleep

    # ---- transport -------------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        """The sleep before retry ``attempt`` (zero-based), with jitter."""
        base = min(self.backoff_cap, self.backoff_base * (2.0**attempt))
        return base * (1.0 + 0.25 * self._jitter.random())

    def _request_once(
        self, path: str, body: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self.connect_timeout
        )
        try:
            connection.connect()
            if connection.sock is not None:
                connection.sock.settimeout(self.read_timeout)
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
            payload = response.read().decode("utf-8", errors="replace")
            if not 200 <= response.status < 300:
                try:
                    payload = json.loads(payload).get("error", payload)
                except ValueError:
                    pass
                raise ServiceError(response.status, payload)
            return json.loads(payload)
        finally:
            connection.close()

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

    # ---- convenience -----------------------------------------------

    def wait_until_ingested(
        self, timeout: float = 60.0, poll_s: float = 0.05
    ) -> Dict[str, Any]:
        """Poll ``/healthz`` until the service reports ingest complete.

        Returns the final health payload; raises ``TimeoutError`` if the
        replay does not finish within ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            health = self.healthz()
            if health.get("ingest_complete"):
                return health
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"ingestion incomplete after {timeout:.1f}s: {health}"
                )
            time.sleep(poll_s)
