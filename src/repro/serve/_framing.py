"""HTTP/1.1 message framing shared by the server and the client.

Both ends of :mod:`repro.serve` read a start line and a header block the
same way, under the limits the standard library's ``http.client`` and
``http.server`` apply: a line is at most :data:`MAX_LINE` bytes and a
message has at most :data:`MAX_HEADERS` header lines. Header names are
lower-cased into a plain dict; the first of repeated names wins.
"""

from __future__ import annotations

__all__ = ["MAX_HEADERS", "MAX_LINE", "FramingError", "read_headers", "tokens"]

#: longest request, status or header line, in bytes (``http.client._MAXLINE``)
MAX_LINE = 65536
#: most header lines in one message (``http.client._MAXHEADERS``)
MAX_HEADERS = 100


class FramingError(ValueError):
    """A message that does not parse as HTTP/1.1; ``status`` is the code a
    server refuses such a request with."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_headers(reader) -> dict[str, str]:
    """Read header lines from a binary ``readline`` reader up to the blank
    line that ends them. Raises :class:`FramingError` on an overlong line,
    too many lines or a line that is not ``name: value``, and
    :class:`EOFError` when the peer hangs up before the blank line."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError("header line too long", 431)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise EOFError("connection closed inside the headers")
        name, sep, value = line.decode("iso-8859-1").partition(":")
        # Folded continuation lines and whitespace before the colon are
        # refused (RFC 9112 §5.1-2, §5.2), never guessed at.
        if not sep or not name or name != name.strip():
            raise FramingError(f"malformed header line {line[:80]!r}")
        headers.setdefault(name.lower(), value.strip())
    raise FramingError(f"more than {MAX_HEADERS} headers", 431)


def tokens(value: str) -> set[str]:
    """The lower-cased comma-separated tokens of a header value."""
    return {t.strip() for t in value.lower().split(",")}
