"""End-to-end server tests: lifecycle, concurrency, cancel/resume, crashes.

Everything runs against a real :class:`VQMCServer` (worker threads, warm
cache, batcher); the HTTP tests additionally go through a real
``ThreadingHTTPServer`` on an ephemeral port via :class:`ServeClient`.
Jobs are tiny (n=6, tens of iterations) so the whole module stays in the
tier-1 budget.
"""

from __future__ import annotations

import json
import math
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import load_checkpoint, verify_checkpoint

pytestmark = pytest.mark.serve
from repro.serve import (
    AdmissionError,
    ProtocolError,
    ServeAPIError,
    ServeClient,
    VQMCServer,
    build_trainer,
)
from tests.test_serve.test_batcher import wait_until

SPEC = {
    "problem": "tim", "n": 6, "arch": "made", "hidden": 8,
    "seed": 3, "iterations": 5, "batch_size": 16, "checkpoint_every": 2,
}

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def wait_terminal(server: VQMCServer, job_id: str, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    job = server.job(job_id)
    while job.state not in ("completed", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} stuck in {job.state}")
        time.sleep(0.01)
    return job


def counter(server: VQMCServer, name: str) -> float:
    return server.metrics.counter(name).value


def wait_step(server: VQMCServer, job_id: str, step: int, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    job = server.job(job_id)
    while job.step < step and job.state not in ("completed", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} stuck at step {job.step}")
        time.sleep(0.005)
    return job


@pytest.fixture
def server(tmp_path):
    srv = VQMCServer(tmp_path / "serve", workers=2, batch_window=4)
    yield srv
    srv.shutdown()


class TestJobLifecycle:
    def test_submit_run_result(self, server):
        job = server.submit(dict(SPEC))
        assert job.id.startswith("job")
        done = wait_terminal(server, job.id)
        assert done.state == "completed", done.error
        assert done.step == SPEC["iterations"]
        assert done.result is not None and "mean" in done.result
        assert done.health == "OK"
        status = done.status_json()
        assert status["run_seconds"] is not None
        assert status["state"] == "completed"

    def test_server_side_training_matches_local_run(self, server):
        """A served job is bit-identical to the equivalent one-shot run."""
        job = server.submit(dict(SPEC))
        wait_terminal(server, job.id)
        local = build_trainer("tim", 6, 0, "made", 8, seed=3)
        local.run(SPEC["iterations"], batch_size=SPEC["batch_size"])
        entry = server.cache.get(job.spec.model_key())
        import numpy as np

        np.testing.assert_array_equal(
            local.model.flat_parameters(), entry.vqmc.model.flat_parameters()
        )

    def test_invalid_spec_rejected_before_queueing(self, server):
        with pytest.raises(ProtocolError):
            server.submit({"problem": "sudoku"})
        assert server.jobs() == []

    def test_admission_rejection_is_not_a_job(self, tmp_path):
        srv = VQMCServer(tmp_path / "s", workers=1, max_job_seconds=1e-12)
        try:
            with pytest.raises(AdmissionError, match="job too large"):
                srv.submit(dict(SPEC))
            assert srv.jobs() == []
        finally:
            srv.shutdown()


class TestCancelAndResume:
    def test_cancel_mid_run_leaves_restorable_checkpoint(self, server, tmp_path):
        spec = dict(SPEC, iterations=3000, checkpoint_every=1)
        job = server.submit(spec)
        wait_step(server, job.id, 2)
        server.cancel(job.id)
        done = wait_terminal(server, job.id)
        assert done.state == "cancelled"
        assert done.checkpoint_path is not None
        ckpt = Path(done.checkpoint_path)
        assert ckpt.exists()
        verify_checkpoint(ckpt)  # raises on corruption
        fresh = build_trainer("tim", 6, 0, "made", 8, seed=3)
        load_checkpoint(fresh, ckpt)
        assert fresh.global_step == done.step

    def test_resume_continues_from_cancelled_checkpoint(self, server):
        spec = dict(SPEC, iterations=3000, checkpoint_every=1)
        job = server.submit(spec)
        wait_step(server, job.id, 2)
        server.cancel(job.id)
        cancelled = wait_terminal(server, job.id)

        target = cancelled.step + 2
        resumed = server.submit(dict(spec, iterations=target, resume=True))
        done = wait_terminal(server, resumed.id)
        assert done.state == "completed", done.error
        assert done.step == target

    def test_cancel_while_queued_never_runs(self, tmp_path):
        srv = VQMCServer(tmp_path / "s", workers=1)
        try:
            blocker = srv.submit(dict(SPEC, iterations=2000))
            queued = srv.submit(dict(SPEC, seed=4, iterations=2000))
            srv.cancel(queued.id)
            assert wait_terminal(srv, queued.id).state == "cancelled"
            srv.cancel(blocker.id)
            wait_terminal(srv, blocker.id)
            assert queued._started is None  # never picked up by a worker
        finally:
            srv.shutdown()


class TestCachePinning:
    def test_running_jobs_model_survives_cache_pressure(self, tmp_path):
        """LRU must never evict the model under a running job."""
        srv = VQMCServer(tmp_path / "s", workers=1, cache_capacity=1)
        try:
            job = srv.submit(dict(SPEC, iterations=600))
            wait_step(srv, job.id, 1)
            job_key = job.spec.model_key()
            # Hammer the 1-slot cache with queries for OTHER models while
            # the job trains.
            for seed in (11, 12, 13):
                reply = srv.query(
                    {"problem": "tim", "n": 6, "arch": "made", "hidden": 8,
                     "seed": seed, "batch_size": 4}, "energy")
                assert reply["count"] == 4
                assert job_key in srv.cache.keys()  # pinned: never evicted
            assert srv.cache.evictions > 0  # pressure was real
            srv.cancel(job.id)
            done = wait_terminal(srv, job.id)
            assert done.state in ("cancelled", "completed")
        finally:
            srv.shutdown()


class TestCrashPath:
    def test_injected_fault_fails_job_with_flight_dump(self, server):
        job = server.submit(dict(SPEC, iterations=50, inject_fault_at=3))
        done = wait_terminal(server, job.id)
        assert done.state == "failed"
        assert "injected server fault" in done.error
        assert done.flight_dump is not None
        dump = Path(done.flight_dump)
        assert dump.exists() and dump.name == "flight.rank000.json"

    def test_monitor_attributes_the_crash(self, server):
        """tools/monitor.py must name rank 0 and the injected cause."""
        job = server.submit(dict(SPEC, iterations=50, inject_fault_at=2))
        done = wait_terminal(server, job.id)
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "monitor.py"), "flight",
             done.flight_dump, "--json"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr  # failed rank recorded
        doc = json.loads(proc.stdout)
        assert "0" in doc["failed_ranks"]
        assert doc["failed_ranks"]["0"]["cause"] == "RuntimeError"
        assert doc["failed_ranks"]["0"]["last_completed_step"] is not None

    def test_worker_survives_a_failed_job(self, server):
        bad = server.submit(dict(SPEC, inject_fault_at=1))
        wait_terminal(server, bad.id)
        good = server.submit(dict(SPEC, seed=5))
        assert wait_terminal(server, good.id).state == "completed"


class TestHTTP:
    @pytest.fixture
    def client(self, server):
        port = server.start_http()
        with ServeClient(f"http://127.0.0.1:{port}", timeout=30.0) as client:
            yield client

    def test_full_lifecycle_over_http(self, client):
        assert client.healthz()["status"] == "ok"
        reply = client.submit(dict(SPEC))
        status = client.wait(reply["id"], timeout=60.0)
        assert status["state"] == "completed"
        result = client.result(reply["id"])
        assert "mean" in result["result"]
        assert any(j["id"] == reply["id"] for j in client.jobs())

    def test_error_mapping(self, client):
        with pytest.raises(ServeAPIError) as exc_info:
            client.submit({"problem": "sudoku"})
        assert exc_info.value.status == 400
        with pytest.raises(ServeAPIError) as exc_info:
            client.status("job999999")
        assert exc_info.value.status == 404
        with pytest.raises(ServeAPIError) as exc_info:
            client.result("job999999")
        assert exc_info.value.status == 404

    def test_concurrent_clients_get_per_request_correct_results(
        self, server, client
    ):
        """The satellite e2e: B threads sharing one client, distinct batch
        sizes, every reply sliced from a coalesced forward is correct."""
        job = client.submit(dict(SPEC))
        client.wait(job["id"], timeout=60.0)
        entry = server.cache.get(server.job(job["id"]).spec.model_key())
        before = server.batcher.forwards
        queries = counter(server, "serve.queries.energy")

        sizes = [2 + i for i in range(8)]
        replies: list[dict | None] = [None] * len(sizes)
        errors: list[BaseException] = []

        def fire(i: int) -> None:
            try:
                replies[i] = client.energy(
                    {"job_id": job["id"], "batch_size": sizes[i]}
                )
            except BaseException as exc:  # noqa: BLE001 — assert below
                errors.append(exc)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(len(sizes))]
        # Staged by counter, not by clock: with the model's lock held, the
        # first request makes the executor busy and the rest queue behind it.
        with entry.lock:
            threads[0].start()
            wait_until(
                lambda: counter(server, "serve.queries.energy") == queries + 1
                and server.batcher.pending_count() == 0
            )
            for t in threads[1:]:
                t.start()
            wait_until(lambda: server.batcher.pending_count() == len(sizes) - 1)
        for t in threads:
            t.join(30.0)
        assert not errors
        assert [r["count"] for r in replies] == sizes
        window = server.batcher.window
        assert server.batcher.forwards - before == 1 + math.ceil(
            (len(sizes) - 1) / window
        )

    def test_sample_endpoint_round_trips_configurations(self, client):
        reply = client.sample(
            {"problem": "tim", "n": 6, "arch": "made", "hidden": 8,
             "seed": 7, "batch_size": 3})
        assert len(reply["samples"]) == 3
        assert all(len(row) == 6 for row in reply["samples"])

    def test_queries_leave_training_bit_exact(self, server, client):
        """Acceptance: interleaved server-side queries must not perturb
        the training stream (same fix as VQMC.evaluate, server-scale)."""
        job = client.submit(dict(SPEC, iterations=40, batch_size=16))
        # Hammer the training model with queries while it runs.
        for _ in range(5):
            client.energy({"job_id": job["id"], "batch_size": 8})
        client.wait(job["id"], timeout=60.0)

        import numpy as np

        local = build_trainer("tim", 6, 0, "made", 8, seed=3)
        local.run(40, batch_size=16)
        entry = server.cache.get(server.job(job["id"]).spec.model_key())
        np.testing.assert_array_equal(
            local.model.flat_parameters(), entry.vqmc.model.flat_parameters()
        )


class TestConnections:
    """Persistent connections: reuse, the replay rule, bounded shutdown."""

    QUERY = {"problem": "tim", "n": 6, "arch": "made", "hidden": 8,
             "seed": 7, "batch_size": 3}

    @pytest.fixture
    def url(self, server):
        return f"http://127.0.0.1:{server.start_http()}"

    @staticmethod
    def drop_server_side(server):
        """Close every accepted connection the way an idle timeout would."""
        with server._http_lock:
            for conn in server._connections:
                conn.shutdown(socket.SHUT_RDWR)
        wait_until(lambda: not server._connections)

    def test_sequential_queries_share_one_connection(self, server, url):
        with ServeClient(url, timeout=30.0) as client:
            client.healthz()
            connections = counter(server, "serve.http.connections")
            requests = counter(server, "serve.http.requests")
            for i in range(20):
                (client.energy if i % 2 else client.sample)(self.QUERY)
            assert counter(server, "serve.http.connections") == connections
            assert counter(server, "serve.http.requests") == requests + 20
        fresh = ServeClient(url, timeout=30.0)
        for _ in range(20):
            fresh.energy(self.QUERY)
        fresh.close()
        assert counter(server, "serve.http.connections") == connections + 1

    @staticmethod
    def raw_exchange(sock: socket.socket, reader, request: bytes) -> tuple[int, dict]:
        sock.sendall(request)
        status = int(reader.readline().split()[1])
        length = 0
        while line := reader.readline().strip():
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return status, json.loads(reader.read(length))

    def test_unread_bodies_do_not_poison_the_connection(self, url):
        """One raw socket: a route that ignores its body, then a GET."""
        host, port = url.removeprefix("http://").split(":")
        body = json.dumps({"left": "over"}).encode()
        post = b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
        with socket.create_connection((host, int(port)), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            status, _ = self.raw_exchange(sock, reader, post % (len(body), body))
            assert status == 404
            status, doc = self.raw_exchange(
                sock, reader, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert (status, doc["status"]) == (200, "ok")

    @pytest.mark.parametrize("length", [b"-5", b"many"])
    def test_untrustworthy_content_length_is_a_400(self, url, length):
        host, port = url.removeprefix("http://").split(":")
        request = (b"POST /sample HTTP/1.1\r\nHost: x\r\nContent-Length: "
                   + length + b"\r\n\r\n")
        with socket.create_connection((host, int(port)), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            status, doc = self.raw_exchange(sock, reader, request)
            assert status == 400 and "Content-Length" in doc["error"]
            # where the next request would start is unknown: the server hangs up
            assert reader.read() == b""

    def test_shutdown_is_bounded_with_an_idle_client_attached(self, tmp_path):
        srv = VQMCServer(tmp_path / "s", workers=1)
        client = ServeClient(f"http://127.0.0.1:{srv.start_http()}", timeout=30.0)
        client.healthz()  # its keep-alive handler now idles in readline()
        begin = time.monotonic()
        srv.shutdown()
        assert time.monotonic() - begin < 5.0
        time.sleep(1.0)
        alive = [t.name for t in threading.enumerate()
                 if t.name.startswith("serve-http")]
        assert alive == []
        client.close()

    def test_stale_connection_is_replayed_once_for_safe_requests(self, server, url):
        with ServeClient(url, timeout=30.0) as client:
            client.energy(self.QUERY)
            connections = counter(server, "serve.http.connections")
            self.drop_server_side(server)
            assert client.energy(self.QUERY)["count"] == 3
            self.drop_server_side(server)
            assert client.healthz()["status"] == "ok"
            assert counter(server, "serve.http.connections") == connections + 2
            # Once, not for ever: with the server gone the replay fails too.
            server.shutdown()
            with pytest.raises(OSError):
                client.healthz()

    def test_idle_connection_times_out_and_the_client_recovers(
        self, server, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.server.IDLE_TIMEOUT_S", 0.2)
        url = f"http://127.0.0.1:{server.start_http()}"
        with ServeClient(url, timeout=30.0) as client:
            client.healthz()
            wait_until(lambda: not server._connections)  # the handler gave up
            assert client.healthz()["status"] == "ok"

    def test_job_control_never_rides_a_used_connection(self, server, url):
        with ServeClient(url, timeout=30.0) as client:
            client.healthz()
            connections = counter(server, "serve.http.connections")
            self.drop_server_side(server)  # a replay here could submit twice
            job = client.submit(dict(SPEC, iterations=2000))
            assert [j.id for j in server.jobs()] == [job["id"]]
            assert client.status(job["id"])["id"] == job["id"]  # reuses submit's
            assert client.cancel(job["id"])["id"] == job["id"]
            assert counter(server, "serve.http.connections") == connections + 2
            assert client.wait(job["id"], timeout=60.0)["state"] == "cancelled"

    def test_transport_failures_are_oserrors(self):
        """Callers catch OSError; http.client.HTTPException is not one."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]

            def babble() -> None:
                conn, _ = listener.accept()
                with conn:
                    conn.makefile("rb").readline()
                    conn.sendall(b"not http at all\r\n\r\n")

            thread = threading.Thread(target=babble)
            thread.start()
            with ServeClient(f"http://127.0.0.1:{port}", timeout=30.0) as client:
                with pytest.raises(OSError):
                    client.healthz()
            thread.join(30.0)
        with ServeClient(f"http://127.0.0.1:{port}", timeout=30.0) as client:
            with pytest.raises(ConnectionRefusedError):
                client.energy(self.QUERY)

    def test_api_errors_keep_their_fields(self, tmp_path):
        srv = VQMCServer(tmp_path / "s", workers=1, max_job_seconds=1e-12)
        try:
            url = f"http://127.0.0.1:{srv.start_http()}"
            with ServeClient(url, timeout=30.0) as client:
                with pytest.raises(ServeAPIError) as exc_info:
                    client.submit(dict(SPEC))
                err = exc_info.value
                assert (err.status, err.error) == (429, "job too large")
                assert err.detail and isinstance(err.detail, dict)
                assert client.healthz()["status"] == "ok"  # connection survives
        finally:
            srv.shutdown()
