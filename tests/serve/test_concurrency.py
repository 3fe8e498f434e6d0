"""Ingestion racing readers: consistent snapshots, graceful shutdown."""

import contextlib
import http.client
import json
import math
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs import get_obs
from repro.serve import (
    TRANSIENT_ERRORS,
    ServeClient,
    ShardedState,
    TraceReplayer,
    TraceService,
    batch_reference,
)

SRC = Path(__file__).resolve().parent.parent.parent / "src"


def wait_until_ingested(client, timeout=60.0, poll_s=0.05):
    """Poll ``/healthz`` until the service reports its replay done."""
    deadline = time.monotonic() + timeout
    while not client.healthz().get("ingest_complete"):
        if time.monotonic() >= deadline:
            raise TimeoutError(f"ingestion incomplete after {timeout:.1f}s")
        time.sleep(poll_s)


def consistent(stats_payload):
    """Internal-consistency invariants of one /stats response."""
    jobs = stats_payload["jobs"]
    assert sum(stats_payload["architectures"].values()) == jobs
    if jobs:
        fractions = stats_payload["fractions"]["job"]
        assert all(0.0 <= share <= 1.0 + 1e-9 for share in fractions.values())
    return jobs


class TestReadersDuringIngestion:
    def test_snapshots_are_monotone_and_untorn(self, small_trace):
        state = ShardedState(num_shards=3)
        service = TraceService(state=state)
        service.start()
        stop = threading.Event()
        failures = []
        floors = []

        def reader(slot):
            floor = 0
            reads = 0
            with contextlib.closing(ServeClient(service.url)) as client:
                try:
                    while not stop.is_set():
                        payload = client.stats()
                        jobs = consistent(payload)
                        assert jobs >= floor, "job count went backwards"
                        floor = jobs
                        census = client.census()
                        if census["jobs"]:
                            shares = census["census"]["job"].values()
                            assert math.isclose(
                                sum(shares), 1.0, rel_tol=1e-9
                            ), "torn census"
                        reads += 1
                except Exception as error:
                    failures.append((slot, error))
                finally:
                    floors.append((floor, reads))

        try:
            readers = [
                threading.Thread(target=reader, args=(slot,), daemon=True)
                for slot in range(4)
            ]
            for thread in readers:
                thread.start()
            # Many small batches so readers race many shard-version bumps.
            service.start_replay(TraceReplayer(small_trace, batch_size=20))
            assert service.wait_for_ingest(timeout=60)
            time.sleep(0.05)  # one more read round at the final population
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            assert not failures, failures
            assert all(reads > 0 for _, reads in floors)
        finally:
            stop.set()
            service.stop()
        # After the drain every reader converged on the full population.
        assert service.state.job_count == len(small_trace)

    def test_final_state_matches_batch_path(self, small_trace):
        state = ShardedState(num_shards=3)
        service = TraceService(state=state)
        service.start()
        try:
            service.start_replay(TraceReplayer(small_trace, batch_size=33))
            assert service.wait_for_ingest(timeout=60)
            reference = batch_reference(small_trace)
            served = state.snapshot().stats.reference_payload()
            assert served["jobs"] == reference["jobs"]
            for level in ("job", "cnode"):
                for key, want in reference["fractions"][level].items():
                    assert served["fractions"][level][key] == pytest.approx(
                        want, rel=1e-9
                    )
        finally:
            service.stop()

    def test_healthz_never_reports_complete_short_of_the_last_batch(
        self, small_trace
    ):
        # The replay's last batch lands (and the replay finishes) after
        # /healthz took its snapshot but before it answered: the answer
        # must not pair ingest_complete with the count before that batch.
        state = ShardedState(num_shards=2)
        service = TraceService(state=state)
        last_batch = threading.Event()
        ingest_new, snapshot = state.ingest_new, state.snapshot

        def gated_ingest(jobs):
            if small_trace[-1] in jobs:
                last_batch.wait(timeout=30)
            return ingest_new(jobs)

        def snapshot_then_finish():
            view = snapshot()
            last_batch.set()
            assert service.wait_for_ingest(timeout=30)
            return view

        state.ingest_new = gated_ingest
        try:
            service.start_replay(TraceReplayer(small_trace, batch_size=100))
            state.snapshot = snapshot_then_finish
            health = service.handle("GET", "/healthz", {}, None)
        finally:
            last_batch.set()
            service.stop()
        assert health["jobs"] < len(small_trace)
        assert not health["ingest_complete"]

    def test_concurrent_writers_through_http(self, small_trace):
        state = ShardedState(num_shards=4)
        service = TraceService(state=state)
        service.start()
        chunk = len(small_trace) // 4
        failures = []

        def writer(slot):
            try:
                with contextlib.closing(ServeClient(service.url)) as client:
                    start = slot * chunk
                    client.ingest(small_trace[start : start + chunk])
            except Exception as error:
                failures.append((slot, error))

        try:
            writers = [
                threading.Thread(target=writer, args=(slot,), daemon=True)
                for slot in range(4)
            ]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            assert not failures, failures
            assert state.job_count == chunk * 4
        finally:
            service.stop()


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The CLI service drains in-flight work on SIGTERM and exits 0."""
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
                "2",
                "-n",
                "300",
                "--no-cache",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving on "), banner
            url = banner.removeprefix("serving on ")
            # The client keeps its connection open across the SIGTERM.
            with contextlib.closing(ServeClient(url)) as client:
                wait_until_ingested(client, timeout=60)
                assert client.stats()["jobs"] == 300
                process.send_signal(signal.SIGTERM)
                stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "shut down cleanly" in stdout
            assert "served 300 jobs" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_a_failed_replay_stops_the_service(self, small_trace, tmp_path):
        """A trace line that does not parse ends ``serve --trace`` with
        exit 1 instead of a service answering for a partial population."""
        from repro.trace import save_trace

        path = tmp_path / "trace.jsonl"
        save_trace(small_trace[:30], path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(10, '{"job_id": \n')
        path.write_text("".join(lines), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.analysis.cli",
                "serve",
                "--trace",
                str(path),
                "--batch-size",
                "5",
                "--no-cache",
                "-q",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        try:
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 1, (stdout, stderr)
        assert "serve.replay.failed" in stderr
        assert "shut down cleanly" not in stdout

    def test_a_failed_replay_is_not_complete(self, small_trace):
        def jobs():
            for day, job in enumerate(small_trace[:10]):
                yield replace(job, submit_day=day)
            raise ValueError("torn trace")

        service = TraceService(state=ShardedState(num_shards=2))
        service.start()
        try:
            service.start_replay(TraceReplayer(jobs(), batch_size=5))
            assert service.wait_for_shutdown(timeout=30)
            assert service.wait_for_ingest(timeout=30)
            assert isinstance(service.replay_error, ValueError)
            with contextlib.closing(ServeClient(service.url)) as client:
                health = client.healthz()
            # The tenth job's day never closed, so it never landed.
            assert health["jobs"] == 9
            assert health["ingest_complete"] is False
        finally:
            service.stop()


class GatedService(TraceService):
    """Holds every ``/stats`` query inside :meth:`handle` until
    :attr:`release` is set."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def handle(self, method, path, params, body):
        if path == "/stats":
            self.entered.set()
            assert self.release.wait(timeout=30)
        return super().handle(method, path, params, body)


class TestDrainOnPersistentConnections:
    def test_an_idle_connection_does_not_hold_up_stop(self, small_trace):
        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:50])
        service = TraceService(state=state)
        service.start()
        client = ServeClient(service.url, retries=0)
        try:
            assert client.healthz()["jobs"] == 50
        finally:
            start = time.monotonic()
            service.stop()
        # The handler's 30 s idle timeout would hold it up that long.
        assert time.monotonic() - start < 1.0
        # The kept connection was ended, and nothing listens any more.
        with pytest.raises(TRANSIENT_ERRORS):
            client.healthz()

    def test_a_request_in_flight_gets_its_answer(self, small_trace):
        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:50])
        service = GatedService(state=state)
        service.start()
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        stopper = threading.Thread(target=service.stop)
        try:
            connection.request("GET", "/stats")
            assert service.entered.wait(timeout=30)
            stopper.start()
            deadline = time.monotonic() + 30
            while not service._server.draining:
                assert time.monotonic() < deadline, "stop() never drained"
                time.sleep(0.01)
            assert stopper.is_alive()
            service.release.set()
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read())["jobs"] == 50
            stopper.join(timeout=30)
            assert not stopper.is_alive()
        finally:
            service.release.set()
            connection.close()
            if stopper.ident is None:
                service.stop()
            else:
                stopper.join(timeout=30)

    def test_a_drain_under_load_cuts_no_response(self, small_trace):
        # More threads than cores, switching often, keep requesting
        # over kept connections while stop() drains: each call gets a
        # whole answer or a transient error, never a torn response.
        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:50])
        for delay in (0.02, 0.05, 0.1):
            service = TraceService(state=state)
            service.start()
            stop = threading.Event()
            answers, failures = [], []

            def worker(slot):
                client = ServeClient(service.url, retries=0, timeout=10)
                with contextlib.closing(client):
                    while not stop.is_set():
                        try:
                            payload = (
                                client.stats()
                                if slot % 2
                                else client.healthz()
                            )
                            assert payload["jobs"] == 50
                            answers.append(slot)
                        except TRANSIENT_ERRORS:
                            pass
                        except Exception as error:
                            failures.append(error)
                            return

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(6)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                time.sleep(delay)
                start = time.monotonic()
                service.stop()
                elapsed = time.monotonic() - start
            finally:
                sys.setswitchinterval(interval)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures
            assert answers
            assert elapsed < 5.0


class TestAbortedResponses:
    def test_a_client_that_went_away_is_counted_not_printed(
        self, small_trace, capfd
    ):
        state = ShardedState(num_shards=2)
        state.ingest(small_trace[:50])
        service = GatedService(state=state)
        service.start()
        aborted = get_obs().metrics.counter("serve.query.aborted")
        before = aborted.value
        try:
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                assert service.entered.wait(timeout=30)
                # Close with a reset, so the answer's write fails.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            time.sleep(0.1)
        finally:
            service.release.set()
            service.stop()
        assert aborted.value - before == 1
        assert "Traceback" not in capfd.readouterr().err
