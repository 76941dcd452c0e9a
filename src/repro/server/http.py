"""Minimal HTTP/1.1 framing over raw sockets.

Just enough of RFC 7230 for a SPARQL Protocol endpoint and its tests: one
request per connection (the server always answers ``Connection: close``),
``Content-Length`` bodies, percent-decoded query strings and urlencoded
form bodies, and chunked transfer encoding on the response side so SELECT
results stream row batches without a known total size.

Deliberately not here: keep-alive/pipelining, multipart, compression,
HTTP/2. The serving layer's interesting problems are admission control and
load shedding, not protocol completeness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import BinaryIO, Iterable
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "StreamAborted",
    "read_request",
    "request_complete",
    "write_response",
    "write_chunked",
    "STATUS_REASONS",
]

MAX_REQUEST_LINE = 16 * 1024
MAX_HEADER_COUNT = 64
MAX_BODY_BYTES = 4 * 1024 * 1024

STATUS_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    406: "Not Acceptable",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed or oversized request; carries the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class StreamAborted(Exception):
    """A chunked response failed after its head was written.

    The status line is out, so there is no second answer to give: the
    caller must not write another head, only close the connection — the
    missing terminal chunk is how the client learns the body is truncated.
    The failure itself is ``__cause__``.
    """


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    target: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def form(self) -> dict[str, str]:
        """The urlencoded body as a dict (empty for other content types)."""
        if "application/x-www-form-urlencoded" not in self.header("content-type"):
            return {}
        return dict(parse_qsl(self.body.decode("utf-8", "replace"),
                              keep_blank_values=True))

    def param(self, name: str, default: str | None = None) -> str | None:
        """A parameter from the query string, falling back to the form body."""
        if name in self.query:
            return self.query[name]
        return self.form().get(name, default)


def _read_line(rfile: BinaryIO) -> bytes:
    line = rfile.readline(MAX_REQUEST_LINE + 1)
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "header line too long")
    return line


def read_request(rfile: BinaryIO) -> HttpRequest | None:
    """Parse one request from a socket file; ``None`` on clean EOF.

    Raises :class:`HttpError` (with a client-error status) on malformed
    framing, so the caller can still answer before closing.
    """
    raw = _read_line(rfile)
    if not raw:
        return None
    parts = raw.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "too many headers")
        text = line.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header: {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body = rfile.read(length)
        if len(body) != length:
            raise HttpError(400, "truncated request body")

    split = urlsplit(target)
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query, keep_blank_values=True)),
        headers=headers,
        body=body,
    )


# A head may end in bare LFs: read_request accepts them.
_HEAD_END = re.compile(rb"\r?\n\r?\n")
# No head within what read_request allows is any longer than this.
MAX_HEAD_BYTES = (MAX_HEADER_COUNT + 2) * MAX_REQUEST_LINE


def request_complete(data: bytes) -> bool:
    """Whether ``data`` (the bytes read from a connection so far) holds a
    whole request — its head through the blank line and ``Content-Length``
    bytes of body — or enough that :func:`read_request` will refuse it."""
    end = data.find(b"\r\n\r\n") + 4
    if end < 4:
        match = _HEAD_END.search(data)
        if match is None:
            return len(data) > MAX_HEAD_BYTES
        end = match.end()
    head = data[:end].lower()
    at = head.find(b"\ncontent-length:")
    if at < 0:
        return True
    length = head[at + 16:head.find(b"\n", at + 1)].strip()
    # malformed: complete now, for read_request to refuse
    length = int(length) if length.isdigit() else 0
    return length > MAX_BODY_BYTES or len(data) >= end + length


def _head(status: int, headers: dict[str, str]) -> bytes:
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def write_response(
    wfile: BinaryIO,
    status: int,
    headers: dict[str, str],
    body: bytes = b"",
) -> None:
    """Write a fixed-length response (Content-Length framing)."""
    out = dict(headers)
    out.setdefault("Content-Length", str(len(body)))
    out.setdefault("Connection", "close")
    wfile.write(_head(status, out) + body)
    wfile.flush()


def write_chunked(
    wfile: BinaryIO,
    status: int,
    headers: dict[str, str],
    chunks: Iterable[bytes | str],
) -> None:
    """Write a chunked response, flushing after every chunk.

    The per-chunk flush is what keeps first-row latency flat: the client
    sees the header and the first batch of rows while the operator tree is
    still producing the rest.

    The first chunk is pulled before anything is written, so a source that
    fails at once propagates its own exception and the caller can still
    answer with an error status. Any later failure, in the source or on the
    socket, raises :class:`StreamAborted` from it, with no terminal chunk
    written.
    """
    out = dict(headers)
    out["Transfer-Encoding"] = "chunked"
    out.setdefault("Connection", "close")
    out.pop("Content-Length", None)
    chunks = iter(chunks)
    first = next(chunks, b"")
    try:
        wfile.write(_head(status, out))
        for chunk in chain((first,), chunks):
            data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
            if not data:
                continue
            wfile.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
            wfile.flush()
        wfile.write(b"0\r\n\r\n")
        wfile.flush()
    except Exception as exc:
        raise StreamAborted(f"chunked response aborted: {exc}") from exc
