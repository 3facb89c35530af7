"""VQMC-as-a-service: the long-lived multi-tenant job server.

One :class:`VQMCServer` owns four moving parts:

- a :class:`~repro.serve.jobqueue.JobQueue` (priorities + planner-driven
  admission control at the door);
- a worker pool (threads) that drives admitted training jobs through the
  re-entrant :class:`~repro.core.vqmc.StepDriver` — pausable, cancellable,
  checkpointable *between* steps, never mid-step;
- a :class:`~repro.serve.cache.WarmModelCache` keyed by
  ``(hamiltonian, ansatz, checkpoint)`` with LRU eviction and pinning for
  running jobs;
- a :class:`~repro.serve.batcher.RequestBatcher` coalescing concurrent
  ``sample``/``energy`` queries against one warm model into one forward.

Observability matches CLI runs: every job gets a
:class:`~repro.obs.flight.FlightRecorder` (+ streaming
:class:`~repro.obs.health.HealthMonitor`) so a dying server-side job
leaves the same ``flight.rankNNN.json`` black box ``tools/monitor.py``
autopsies, and its health report rides in its checkpoints.

Checkpoints land in a **per-model-key** directory (``checkpoints/<key>``
under the server root), shared by every job training that model: a
cancelled or crashed job leaves a restorable checkpoint behind, and a
later job with ``resume: true`` — or a restarted server — picks training
up from the newest verifying one.

The HTTP layer is a thin JSON veneer (stdlib ``http.server``); all
behaviour is equally reachable in-process, which is how the tests and the
throughput benchmark drive it.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.callbacks import Callback
from repro.core.checkpoint import CheckpointCallback
from repro.core.vqmc import VQMC, StepDriver
from repro.obs.flight import FlightRecorder
from repro.obs.health import HealthMonitor
from repro.obs.metrics import Metrics
from repro.serve.batcher import RequestBatcher
from repro.serve.cache import WarmModelCache
from repro.serve.jobqueue import AdmissionError, JobQueue
from repro.serve.protocol import (
    JobSpec,
    JobState,
    ModelKey,
    ProtocolError,
    QuerySpec,
)

__all__ = ["Job", "VQMCServer", "build_trainer"]

#: seconds a handler waits on a quiet keep-alive connection before closing it
IDLE_TIMEOUT_S = 30.0


def build_trainer(
    problem: str,
    n: int,
    instance_seed: int,
    arch: str,
    hidden: int | None,
    seed: int,
    sampler: str | None = None,
    optimizer: str = "adam",
    metrics=None,
) -> VQMC:
    """Construct a servable trainer from spec vocabulary.

    The sampling seed offset (+10_000) matches the CLI's ``train`` command
    so a server-side job is bit-identical to the equivalent one-shot run.
    """
    from repro.experiments.protocol import (
        build_model,
        build_optimizer,
        build_sampler,
        make_hamiltonian,
    )

    ham = make_hamiltonian(problem, n, seed=instance_seed)
    model = build_model(arch, n, seed, hidden=hidden)
    if sampler is None:
        sampler = "auto" if arch in ("made", "mean_field", "rnn") else "mcmc"
    sam = build_sampler(sampler, n)
    opt, sr = build_optimizer(optimizer, model)
    return VQMC(model, ham, sam, opt, sr=sr, seed=seed + 10_000, metrics=metrics)


class _FaultAt(Callback):
    """Testing hook: kill the job at a given step (spec.inject_fault_at)."""

    def __init__(self, at_step: int):
        self.at_step = at_step

    def on_step(self, step: int, result) -> None:
        if step >= self.at_step:
            raise RuntimeError(f"injected server fault at step {step}")


class Job:
    """Runtime record of one admitted training job."""

    def __init__(self, job_id: str, spec: JobSpec, directory: Path):
        self.id = job_id
        self.spec = spec
        self.dir = directory
        self.state = JobState.QUEUED
        self.error: str | None = None
        self.estimated_seconds = 0.0
        self.cancel_event = threading.Event()
        self.step = 0  # last completed global step
        self.energy: float | None = None
        self.result: dict | None = None
        self.health: str | None = None
        self.flight_dump: str | None = None
        self.checkpoint_path: str | None = None
        self._submitted = time.monotonic()
        self._started: float | None = None
        self._finished: float | None = None

    def status_json(self) -> dict:
        now = time.monotonic()
        started = self._started
        finished = self._finished
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_json(),
            "step": self.step,
            "iterations": self.spec.iterations,
            "energy": self.energy,
            "error": self.error,
            "result": self.result,
            "health": self.health,
            "flight_dump": self.flight_dump,
            "checkpoint": self.checkpoint_path,
            "estimated_seconds": self.estimated_seconds,
            "queued_seconds": (started if started is not None else now)
            - self._submitted,
            "run_seconds": None
            if started is None
            else (finished if finished is not None else now) - started,
        }


class VQMCServer:
    """The multi-tenant solver server (see module docstring).

    Parameters
    ----------
    root:
        Working directory: per-model-key checkpoints, per-job flight dumps.
    workers:
        Training worker threads (concurrent jobs).
    cache_capacity, batch_window:
        Warm-cache and batcher knobs (see their modules).
    max_pending, max_job_seconds, max_backlog_seconds:
        Admission-control bounds (see :mod:`repro.serve.jobqueue`).
    """

    def __init__(
        self,
        root: str | Path,
        workers: int = 2,
        cache_capacity: int = 8,
        batch_window: int = 8,
        max_pending: int = 64,
        max_job_seconds: float | None = None,
        max_backlog_seconds: float | None = None,
        metrics: Metrics | None = None,
        query_timeout_s: float = 30.0,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache = WarmModelCache(capacity=cache_capacity, metrics=self.metrics)
        self.batcher = RequestBatcher(window=batch_window, metrics=self.metrics)
        self.queue = JobQueue(
            max_pending=max_pending,
            max_job_seconds=max_job_seconds,
            max_backlog_seconds=max_backlog_seconds,
            workers=workers,
        )
        self.query_timeout_s = query_timeout_s
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._seq = 0
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(max(1, workers))
        ]
        for t in self._workers:
            t.start()
        self._http: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        #: accepted sockets, so that shutdown can wake their idle handlers
        self._connections: set[socket.socket] = set()
        #: guards ``_connections`` and the ``serve.http.*`` counters
        self._http_lock = threading.Lock()

    # -- job API -------------------------------------------------------------------

    def submit(self, raw: dict) -> Job:
        """Validate, cost, admit, and enqueue one job (raises
        :class:`ProtocolError` / :class:`AdmissionError`)."""
        spec = JobSpec.from_json(raw)
        with self._jobs_lock:
            self._seq += 1
            job_id = f"job{self._seq:06d}"
        job = Job(job_id, spec, self.root / job_id)
        self.queue.admit(job)  # raises AdmissionError before the job exists
        job.dir.mkdir(parents=True, exist_ok=True)
        with self._jobs_lock:
            self._jobs[job_id] = job
        self.metrics.counter("serve.jobs.submitted").inc()
        return job

    def job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        with self._jobs_lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job.

        A queued job is dropped immediately; a running one stops at the
        next step boundary, writing a restorable checkpoint first.
        """
        job = self.job(job_id)
        job.cancel_event.set()
        if self.queue.remove(job_id) and job.state == JobState.QUEUED:
            job.state = JobState.CANCELLED
            self.metrics.counter("serve.jobs.cancelled").inc()
        return job

    # -- queries -------------------------------------------------------------------

    def _key_dir(self, key: ModelKey) -> Path:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]
        return self.root / "checkpoints" / digest

    def _entry_for(self, key: ModelKey, builder, pin: bool = False):
        def factory():
            vqmc = builder()
            if key.checkpoint is not None:
                from repro.core.checkpoint import load_checkpoint

                load_checkpoint(vqmc, key.checkpoint)
            return vqmc

        return self.cache.get(key, factory, pin=pin)

    def query(self, raw: dict, kind: str | None = None) -> dict:
        """Serve one sample/energy query through the batcher (blocking)."""
        spec = QuerySpec.from_json(raw, kind=kind)
        if spec.job_id is not None:
            job = self.job(spec.job_id)  # KeyError -> 404
            key = job.spec.model_key()
            entry = self._entry_for(
                key,
                lambda: build_trainer(
                    job.spec.problem,
                    job.spec.n,
                    job.spec.instance_seed,
                    job.spec.arch,
                    job.spec.hidden,
                    job.spec.seed,
                    sampler=job.spec.sampler,
                    optimizer=job.spec.optimizer,
                    metrics=self.metrics,
                ),
            )
        else:
            key = spec.model_key()
            entry = self._entry_for(
                key,
                lambda: build_trainer(
                    spec.problem,
                    spec.n,
                    spec.instance_seed,
                    spec.arch,
                    spec.hidden,
                    spec.seed,
                    metrics=self.metrics,
                ),
            )
        pending = self.batcher.submit(spec, entry)
        self.metrics.counter(f"serve.queries.{spec.kind}").inc()
        return pending.wait(self.query_timeout_s)

    # -- worker pool ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.get(timeout=0.1)
            if job is None:
                continue
            if job.cancel_event.is_set():
                job.state = JobState.CANCELLED
                self.metrics.counter("serve.jobs.cancelled").inc()
                continue
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — a job must not kill its worker
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = JobState.FAILED
                job._finished = time.monotonic()
                self.metrics.counter("serve.jobs.failed").inc()

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        key = spec.model_key()
        entry = self._entry_for(
            key,
            lambda: build_trainer(
                spec.problem,
                spec.n,
                spec.instance_seed,
                spec.arch,
                spec.hidden,
                spec.seed,
                sampler=spec.sampler,
                optimizer=spec.optimizer,
                metrics=self.metrics,
            ),
            # Pinned atomically with the lookup: under cache pressure a
            # fresh insert can be evicted before a separate pin() lands.
            pin=True,
        )
        job._started = time.monotonic()
        try:
            vqmc = entry.vqmc
            ckpt = CheckpointCallback(
                self._key_dir(key), every=spec.checkpoint_every, keep_last=3
            )
            health = HealthMonitor()
            recorder = FlightRecorder(job.dir, rank=0, health=health)
            callbacks: list = [ckpt, recorder]
            if spec.inject_fault_at is not None:
                callbacks.insert(0, _FaultAt(spec.inject_fault_at))
            with entry.lock:
                if spec.resume:
                    restored = ckpt.restore_latest(vqmc)
                    if restored is not None:
                        job.step = vqmc.global_step
                remaining = max(0, spec.iterations - vqmc.global_step)
            driver = StepDriver(
                vqmc, remaining, batch_size=spec.batch_size, callbacks=callbacks
            )
            job.state = JobState.RUNNING
            driver.begin()
            try:
                while not driver.done:
                    if job.cancel_event.is_set():
                        driver.cancel()
                        with entry.lock:
                            path = ckpt.write(vqmc, vqmc.global_step)
                        job.checkpoint_path = str(path)
                        break
                    # The entry lock is held for exactly one step: queries
                    # batched against this (training) model interleave at
                    # step boundaries, never mid-update.
                    with entry.lock:
                        result = driver.step_once()
                    if result is not None:
                        job.step = vqmc.global_step
                        job.energy = result.stats.mean
            except BaseException as exc:
                with entry.lock:  # teardown checkpoints/dumps read model state
                    driver.finish(exc)
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = JobState.FAILED
                job.health = health.verdict
                if recorder.dumped:
                    job.flight_dump = str(recorder.dumped[-1])
                self.metrics.counter("serve.jobs.failed").inc()
                return
            with entry.lock:  # teardown checkpoints read model state
                driver.finish(None)
            job.health = health.verdict
            if ckpt.latest() is not None:
                job.checkpoint_path = str(ckpt.latest())
            if job.cancel_event.is_set():
                job.state = JobState.CANCELLED
                self.metrics.counter("serve.jobs.cancelled").inc()
            else:
                with entry.lock:
                    stats = vqmc.evaluate(batch_size=spec.batch_size)
                job.result = {
                    "mean": stats.mean,
                    "std": stats.std,
                    "sem": stats.sem,
                    "count": stats.count,
                    "steps": vqmc.global_step,
                }
                job.state = JobState.COMPLETED
                self.metrics.counter("serve.jobs.completed").inc()
        finally:
            job._finished = time.monotonic()
            self.cache.unpin(key)

    # -- introspection ------------------------------------------------------------

    def healthz(self) -> dict:
        return {
            "status": "ok" if not self._stop.is_set() else "stopping",
            "workers": len(self._workers),
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
            "jobs": {
                state: sum(1 for j in self.jobs() if j.state == state)
                for state in JobState.ALL
            },
        }

    # -- HTTP ----------------------------------------------------------------------

    def start_http(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start the HTTP front end; returns the bound port."""
        if self._http is not None:
            return self._http.server_address[1]
        handler = _make_handler(self)
        self._http = ThreadingHTTPServer((host, port), handler)
        self._http.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        return self._http.server_address[1]

    def shutdown(self) -> None:
        """Stop HTTP, drain the batcher, stop the worker pool."""
        self._stop.set()
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None
            # server_close() leaves accepted sockets open. End their read
            # side: an idle keep-alive handler sees EOF and exits, a busy
            # one still writes its reply first.
            with self._http_lock:
                for conn in self._connections:
                    try:
                        conn.shutdown(socket.SHUT_RD)
                    except OSError:
                        pass  # the peer already closed it
        if self._http_thread is not None:
            self._http_thread.join(5.0)
            self._http_thread = None
        self.batcher.close()
        for t in self._workers:
            t.join(5.0)


# -- HTTP plumbing ---------------------------------------------------------------


def _make_handler(app: VQMCServer):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/1"
        protocol_version = "HTTP/1.1"
        # One segment per reply: headers and body leave in one buffered
        # write, and Nagle never holds a segment back for a delayed ACK.
        wbufsize = -1
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S

        def setup(self) -> None:
            super().setup()
            threading.current_thread().name = "serve-http-connection"
            with app._http_lock:
                app._connections.add(self.connection)
                app.metrics.counter("serve.http.connections").inc()
                if app._stop.is_set():  # accepted as shutdown() ran: wake it here
                    self.connection.shutdown(socket.SHUT_RD)

        def finish(self) -> None:
            with app._http_lock:
                app._connections.discard(self.connection)
            super().finish()

        def log_message(self, fmt, *args):  # noqa: D102 — silence stderr chatter
            del fmt, args

        # -- helpers --------------------------------------------------------------

        def _send(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        @staticmethod
        def _parse_json(raw: bytes) -> dict:
            if not raw:
                return {}
            try:
                parsed = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"request body is not valid JSON: {exc}")
            if not isinstance(parsed, dict):
                raise ProtocolError("request body must be a JSON object")
            return parsed

        def _route(self, method: str) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            with app._http_lock:
                app.metrics.counter("serve.http.requests").inc()
            length = self.headers.get("Content-Length") or "0"
            if not (length.isascii() and length.isdigit()):
                self.close_connection = True  # where the next request starts is unknown
                self._send(400, {"error": f"invalid Content-Length {length!r}"})
                return
            # Drained whatever the route: on a persistent connection, bytes
            # left unread would be parsed as the next request line.
            body = self.rfile.read(int(length))
            try:
                self._dispatch(method, parts, body)
            except ProtocolError as exc:
                self._send(400, {"error": str(exc)})
            except AdmissionError as exc:
                self._send(429, {"error": exc.reason, "detail": exc.detail})
            except KeyError as exc:
                self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
            except TimeoutError as exc:
                self._send(504, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 — HTTP boundary
                self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

        def _dispatch(self, method: str, parts: list[str], body: bytes) -> None:
            if method == "GET" and parts == ["healthz"]:
                self._send(200, app.healthz())
            elif method == "GET" and parts == ["metrics"]:
                self._send(200, app.metrics.snapshot())
            elif method == "GET" and parts == ["jobs"]:
                self._send(200, {"jobs": [j.status_json() for j in app.jobs()]})
            elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                self._send(200, app.job(parts[1]).status_json())
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "result"
            ):
                job = app.job(parts[1])
                if job.state != JobState.COMPLETED:
                    self._send(
                        409, {"error": f"job {job.id} is {job.state}", "state": job.state}
                    )
                else:
                    self._send(200, {"id": job.id, "result": job.result})
            elif method == "POST" and parts == ["jobs"]:
                job = app.submit(self._parse_json(body))
                self._send(201, {"id": job.id, "state": job.state,
                                 "estimated_seconds": job.estimated_seconds})
            elif (
                method == "POST"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "cancel"
            ):
                job = app.cancel(parts[1])
                self._send(200, {"id": job.id, "state": job.state})
            elif method == "POST" and parts in (["sample"], ["energy"]):
                self._send(200, app.query(self._parse_json(body), kind=parts[0]))
            elif method == "POST" and parts == ["shutdown"]:
                self._send(200, {"status": "shutting down"})
                threading.Thread(target=app.shutdown, daemon=True).start()
            else:
                self._send(404, {"error": f"no route {method} /{'/'.join(parts)}"})

        def do_GET(self) -> None:  # noqa: N802 — http.server API
            self._route("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._route("POST")

    return Handler
