"""ServeClient transport robustness: timeouts, retries, backoff."""

import http.server
import threading
import time

import pytest

from repro.serve import TRANSIENT_ERRORS, ServeClient, ServiceError
from repro.serve.client import BACKOFF_BASE, BACKOFF_CAP


class FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Replays a scripted sequence of behaviors, one per request.

    ``server.script`` is a list of ``"drop"`` (close the connection
    without responding), ``"500"``, ``"404"`` or ``"ok"``; once the
    script is exhausted every request succeeds.
    """

    def do_GET(self):
        with self.server.lock:
            self.server.requests += 1
            action = (
                self.server.script.pop(0) if self.server.script else "ok"
            )
        if action == "drop":
            self.close_connection = True
            return
        if action in ("500", "404"):
            self.send_response(int(action))
            body = b'{"error": "scripted failure"}'
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        body = b'{"status": "ok"}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class KeepAliveFlakyHandler(FlakyHandler):
    """The same script on persistent connections, counting them in
    ``server.connections``."""

    protocol_version = "HTTP/1.1"

    def handle(self):
        with self.server.lock:
            self.server.connections += 1
        super().handle()


def serve(handler):
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.script = []
    server.requests = 0
    server.connections = 0
    server.lock = threading.Lock()
    # Clients made by make_client, closed before the server stops.
    server.clients = []
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    yield server
    for client in server.clients:
        client.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


@pytest.fixture()
def flaky_server():
    yield from serve(FlakyHandler)


@pytest.fixture()
def keepalive_server():
    yield from serve(KeepAliveFlakyHandler)


def make_client(server, **kwargs):
    sleeps = []
    kwargs.setdefault("sleep", sleeps.append)
    client = ServeClient(
        f"http://127.0.0.1:{server.server_address[1]}", **kwargs
    )
    server.clients.append(client)
    return client, sleeps


class TestRetries:
    def test_retries_past_5xx(self, flaky_server):
        flaky_server.script[:] = ["500", "500"]
        client, sleeps = make_client(flaky_server, retries=3)
        assert client.healthz() == {"status": "ok"}
        assert flaky_server.requests == 3
        assert len(sleeps) == 2

    def test_retries_past_dropped_connection(self, flaky_server):
        flaky_server.script[:] = ["drop"]
        client, sleeps = make_client(flaky_server, retries=2)
        assert client.healthz() == {"status": "ok"}
        assert flaky_server.requests == 2
        assert len(sleeps) == 1

    def test_4xx_is_not_retried(self, flaky_server):
        flaky_server.script[:] = ["404"]
        client, sleeps = make_client(flaky_server, retries=3)
        with pytest.raises(ServiceError) as exc_info:
            client.healthz()
        assert exc_info.value.status == 404
        assert not exc_info.value.transient
        assert flaky_server.requests == 1
        assert sleeps == []

    def test_budget_exhaustion_raises_last_error(self, flaky_server):
        flaky_server.script[:] = ["500"] * 5
        client, sleeps = make_client(flaky_server, retries=2)
        with pytest.raises(ServiceError) as exc_info:
            client.healthz()
        assert exc_info.value.status == 500
        assert exc_info.value.transient
        assert flaky_server.requests == 3
        assert len(sleeps) == 2

    def test_retries_zero_disables_retrying(self, flaky_server):
        flaky_server.script[:] = ["drop"]
        client, sleeps = make_client(flaky_server, retries=0)
        with pytest.raises(TRANSIENT_ERRORS):
            client.healthz()
        assert flaky_server.requests == 1
        assert sleeps == []

    def test_connection_refused_is_transient(self):
        # Bind then close a socket so the port is reliably refused.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        client = ServeClient(
            f"http://127.0.0.1:{port}", retries=2, sleep=sleeps.append
        )
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(sleeps) == 2


class TestPersistentConnections:
    def test_a_drop_on_a_reused_connection_is_not_resent(
        self, keepalive_server
    ):
        keepalive_server.script[:] = ["ok", "drop"]
        client, sleeps = make_client(keepalive_server, retries=0)
        assert client.healthz() == {"status": "ok"}
        with pytest.raises(TRANSIENT_ERRORS):
            client.healthz()
        # One request each: the dropped one was not sent again.
        assert keepalive_server.requests == 2
        assert keepalive_server.connections == 1
        assert sleeps == []

    def test_a_retry_after_a_drop_uses_a_new_connection(
        self, keepalive_server
    ):
        keepalive_server.script[:] = ["ok", "drop"]
        client, sleeps = make_client(keepalive_server, retries=2)
        assert client.healthz() == {"status": "ok"}
        assert client.healthz() == {"status": "ok"}
        assert keepalive_server.requests == 3
        assert keepalive_server.connections == 2
        assert len(sleeps) == 1

    def test_a_connection_the_server_closed_is_replaced(
        self, keepalive_server, monkeypatch
    ):
        monkeypatch.setattr(KeepAliveFlakyHandler, "timeout", 0.2)
        client, sleeps = make_client(keepalive_server, retries=0)
        assert client.healthz() == {"status": "ok"}
        time.sleep(0.5)  # the server times the idle connection out
        # The probe sees the close and connects again; nothing is sent
        # on the dead connection, so no attempt fails.
        assert client.healthz() == {"status": "ok"}
        assert keepalive_server.requests == 2
        assert keepalive_server.connections == 2
        assert sleeps == []

    def test_a_finished_thread_closes_its_connection(self, keepalive_server):
        # A thread's kept connection used to outlive the thread until
        # the garbage collector found it: close() could not reach it,
        # and python -X dev printed one ResourceWarning per thread.
        client, _ = make_client(keepalive_server, retries=0)
        sockets = []

        def worker():
            assert client.healthz() == {"status": "ok"}
            sockets.append(client._local.kept.connection.sock)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert keepalive_server.connections == 3
        # No close() and no gc.collect(): each thread's end closed its
        # connection.
        assert [sock.fileno() for sock in sockets] == [-1, -1, -1]

    def test_a_4xx_keeps_the_connection(self, keepalive_server):
        keepalive_server.script[:] = ["404"]
        client, sleeps = make_client(keepalive_server, retries=3)
        with pytest.raises(ServiceError) as exc_info:
            client.healthz()
        assert exc_info.value.status == 404
        assert client.healthz() == {"status": "ok"}
        assert keepalive_server.requests == 2
        assert keepalive_server.connections == 1
        assert sleeps == []


class TestBackoff:
    def test_backoff_grows_exponentially_and_caps(self):
        client = ServeClient("http://127.0.0.1:1")
        delays = [client.backoff_delay(k) for k in range(8)]
        schedule = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        assert schedule == [
            min(BACKOFF_CAP, BACKOFF_BASE * 2**k) for k in range(8)
        ]
        # Each delay is its base stretched by up to +25% jitter.
        for delay, base in zip(delays, schedule):
            assert base <= delay <= base * 1.25

    def test_backoff_is_seeded(self):
        first = ServeClient("http://127.0.0.1:1")
        second = ServeClient("http://127.0.0.1:1")
        assert [first.backoff_delay(k) for k in range(4)] == [
            second.backoff_delay(k) for k in range(4)
        ]


class TestConfiguration:
    def test_timeout_kwarg_sets_both_phases(self, keepalive_server):
        client, _ = make_client(keepalive_server, timeout=7.5)
        assert client.healthz() == {"status": "ok"}
        # The handshake's timeout stays on the socket for every read.
        assert client._local.kept.connection.timeout == 7.5
        assert client._local.kept.connection.sock.gettimeout() == 7.5

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ValueError):
            ServeClient("ftp://127.0.0.1:1")
