"""HTTP client for the VQMC job server, on a plain socket.

Thin by design: every method is one endpoint, payloads are the raw JSON
dicts documented in ``docs/serving.md``. Server-side errors surface as
:class:`ServeAPIError` carrying the HTTP status and the server's ``error``
field, so callers can distinguish a 400 (bad spec) from a 429 (admission
rejection) without parsing strings. Transport failures surface as
:class:`OSError` subclasses.

Each thread that uses a client keeps one persistent connection to the
server (a socket and a buffered reader), so a client may be shared
between threads. A request leaves in one ``sendall`` with ``TCP_NODELAY``
set; the reply is read by its ``Content-Length`` (to end of stream when
it has none) under the same line and header limits as the server's. A
reused connection that the server has closed meanwhile is replaced and
the request replayed once — only a request that is safe to replay
(``GET``, ``/sample``, ``/energy``). Job control (``/jobs``, ``/cancel``,
``/shutdown``) always goes out on a fresh connection, so it is never sent
twice.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import weakref
from urllib.parse import urlsplit

from repro.serve._framing import MAX_LINE, FramingError, read_headers, tokens

__all__ = ["ServeAPIError", "ServeClient"]


class ServeAPIError(RuntimeError):
    """Non-2xx response from the server."""

    def __init__(self, status: int, error: str, detail: dict | None = None):
        self.status = status
        self.error = error
        self.detail = detail or {}
        super().__init__(f"HTTP {status}: {error}")


class _Connection:
    """One thread's socket and reader; closes when the thread (or client)
    that owned it is gone."""

    def __init__(self, address: tuple[str, int], timeout: float):
        self.address = address
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.reader = None

    def open(self) -> None:
        self.sock = socket.create_connection(self.address, self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        sock, reader = self.sock, self.reader
        self.sock = self.reader = None
        if sock is not None:
            reader.close()
            sock.close()

    __del__ = close

    def exchange(self, message: bytes) -> tuple[int, str, bytes]:
        """Send one request and read its reply: ``(status, reason, body)``.

        An empty status line is a :class:`ConnectionResetError` (the server
        closed the connection); a reply that does not parse is a
        :class:`FramingError`.
        """
        self.sock.sendall(message)
        reader = self.reader
        line = reader.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("the server closed the connection")
        if len(line) > MAX_LINE:
            raise FramingError("status line too long")
        version, _, rest = line.decode("iso-8859-1").rstrip("\r\n").partition(" ")
        code, _, reason = rest.partition(" ")  # the reason may be empty
        if not (version.startswith("HTTP/") and len(code) == 3
                and code.isascii() and code.isdigit()):
            raise FramingError(f"bad status line {line[:80]!r}")
        try:
            headers = read_headers(reader)
        except EOFError as exc:
            raise FramingError(str(exc)) from None
        connection = tokens(headers.get("connection", ""))
        close = "close" in connection or (
            version == "HTTP/1.0" and "keep-alive" not in connection
        )
        if "transfer-encoding" in headers:
            raise FramingError("Transfer-Encoding replies are not supported")
        length = headers.get("content-length")
        if length is None:
            body, close = reader.read(), True  # the body ends with the stream
        elif length.isascii() and length.isdigit():
            body = reader.read(int(length))
            if len(body) < int(length):
                raise FramingError("reply body cut short")
        else:
            raise FramingError(f"invalid Content-Length {length!r}")
        if close:
            self.close()
        return int(code), reason, body


class ServeClient:
    """Client for one server base URL (e.g. ``http://127.0.0.1:8642``);
    a context manager that closes its connections on exit."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._url = urlsplit(self.base_url)
        if self._url.scheme != "http":
            raise ValueError(f"the server speaks plain http, got {base_url!r}")
        self._address = (self._url.hostname, self._url.port or 80)
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
            conn = self._local.conn = _Connection(self._address, self.timeout)
            with self._lock:
                self._connections.add(conn)
        return conn

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        head = (f"{method} {self._url.path}{path} HTTP/1.1\r\n"
                f"Host: {self._url.netloc}\r\nAccept: application/json\r\n")
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head += "Content-Type: application/json\r\n"
        if method != "GET":
            head += f"Content-Length: {len(body)}\r\n"
        message = (head + "\r\n").encode("latin-1") + body
        conn = self._connection()
        if method != "GET" and path not in ("/sample", "/energy"):
            conn.close()  # not safe to replay: never on a used connection
        while True:
            reused = conn.sock is not None
            try:
                if not reused:
                    conn.open()
                status, reason, raw = conn.exchange(message)
                break
            except (OSError, FramingError) as exc:
                conn.close()  # a late reply must not answer the next request
                if reused and isinstance(exc, ConnectionError):
                    continue  # the server closed it while idle: replay once
                if isinstance(exc, OSError):
                    raise
                raise ConnectionError(f"{method} {path}: {exc}") from exc
        if not 200 <= status < 300:
            try:
                doc = json.loads(raw)
            except ValueError:  # error body is best-effort
                doc = {}
            raise ServeAPIError(status, doc.get("error", reason), doc.get("detail"))
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
