"""Stdlib HTTP client for the VQMC job server (``http.client`` only).

Thin by design: every method is one endpoint, payloads are the raw JSON
dicts documented in ``docs/serving.md``. Server-side errors surface as
:class:`ServeAPIError` carrying the HTTP status and the server's ``error``
field, so callers can distinguish a 400 (bad spec) from a 429 (admission
rejection) without parsing strings. Transport failures surface as
:class:`OSError` subclasses.

Each thread that uses a client keeps one persistent connection to the
server, so a client may be shared between threads. A reused connection
that the server has closed meanwhile is replaced and the request replayed
once — only a request that is safe to replay (``GET``, ``/sample``,
``/energy``). Job control (``/jobs``, ``/cancel``, ``/shutdown``) always
goes out on a fresh connection, so it is never sent twice.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from urllib.parse import urlsplit

__all__ = ["ServeAPIError", "ServeClient"]


class ServeAPIError(RuntimeError):
    """Non-2xx response from the server."""

    def __init__(self, status: int, error: str, detail: dict | None = None):
        self.status = status
        self.error = error
        self.detail = detail or {}
        super().__init__(f"HTTP {status}: {error}")


class _Connection(http.client.HTTPConnection):
    """Closes its socket when the thread (or client) that owned it is gone."""

    def __del__(self) -> None:
        self.close()


class ServeClient:
    """Client for one server base URL (e.g. ``http://127.0.0.1:8642``);
    a context manager that closes its connections on exit."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._url = urlsplit(self.base_url)
        if self._url.scheme != "http":
            raise ValueError(f"the server speaks plain http, got {base_url!r}")
        self._local = threading.local()
        #: every thread's connection, for close(); weak, so a thread that
        #: exits takes its connection with it
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later request opens a new one."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------------

    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(self._url.netloc, timeout=self.timeout)
            with self._lock:
                self._connections.add(conn)
        return conn

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        if method != "GET" and path not in ("/sample", "/energy"):
            conn.close()  # not safe to replay: never on a used connection
        while True:
            reused = conn.sock is not None
            try:
                conn.request(method, self._url.path + path, body, headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (OSError, http.client.HTTPException) as exc:
                conn.close()  # a late reply must not answer the next request
                if reused and isinstance(exc, ConnectionError):
                    continue  # the server closed it while idle: replay once
                if isinstance(exc, OSError):
                    raise
                raise ConnectionError(f"{method} {path}: {exc!r}") from exc
        if not 200 <= response.status < 300:
            try:
                doc = json.loads(raw)
            except ValueError:  # error body is best-effort
                doc = {}
            raise ServeAPIError(
                response.status, doc.get("error", response.reason), doc.get("detail")
            )
        return json.loads(raw)

    # -- endpoints ----------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def submit(self, spec: dict) -> dict:
        """``POST /jobs`` — returns ``{"id", "state", "estimated_seconds"}``."""
        return self._request("POST", "/jobs", spec)

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def sample(self, query: dict) -> dict:
        return self._request("POST", "/sample", query)

    def energy(self, query: dict) -> dict:
        return self._request("POST", "/energy", query)

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    # -- conveniences -------------------------------------------------------------

    def wait(
        self, job_id: str, timeout: float = 120.0, poll_s: float = 0.1
    ) -> dict:
        """Poll ``status`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("completed", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s "
                    f"(step {status['step']}/{status['iterations']})"
                )
            time.sleep(poll_s)
