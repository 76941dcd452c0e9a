"""HTTP framing: request parsing, response writing, chunked encoding."""

import io

import pytest

from repro.server.http import (
    HttpError,
    StreamAborted,
    read_request,
    write_chunked,
    write_response,
)


def _parse(raw: bytes):
    return read_request(io.BytesIO(raw))


class TestReadRequest:
    def test_get_with_query_string(self):
        request = _parse(
            b"GET /sparql?query=SELECT%20%2A&tenant=alice HTTP/1.1\r\n"
            b"Host: localhost\r\nAccept: text/csv\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/sparql"
        assert request.query == {"query": "SELECT *", "tenant": "alice"}
        assert request.header("accept") == "text/csv"
        assert request.header("ACCEPT") == "text/csv"  # case-folded

    def test_post_form_body(self):
        body = b"query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D"
        request = _parse(
            b"POST /sparql HTTP/1.1\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        assert request.form() == {"query": "ASK { ?s ?p ?o }"}
        assert request.param("query") == "ASK { ?s ?p ?o }"

    def test_param_prefers_query_string(self):
        body = b"query=from-body"
        request = _parse(
            b"POST /sparql?query=from-url HTTP/1.1\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        assert request.param("query") == "from-url"

    def test_eof_returns_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_truncated_body(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert excinfo.value.status == 400

    def test_oversized_body_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        assert excinfo.value.status == 413


class TestWriteResponse:
    def test_content_length_and_close(self):
        out = io.BytesIO()
        write_response(out, 200, {"Content-Type": "text/plain"}, b"hello")
        raw = out.getvalue()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 5\r\n" in raw
        assert b"Connection: close\r\n" in raw
        assert raw.endswith(b"\r\n\r\nhello")

    def test_chunked_framing(self):
        out = io.BytesIO()
        write_chunked(out, 200, {"Content-Type": "text/csv"},
                      ["ab", b"cde", "", "f"])
        raw = out.getvalue()
        assert b"Transfer-Encoding: chunked\r\n" in raw
        assert b"Content-Length" not in raw
        body = raw.split(b"\r\n\r\n", 1)[1]
        # hex-size framing, empty chunks skipped, terminal 0-chunk present
        assert body == b"2\r\nab\r\n3\r\ncde\r\n1\r\nf\r\n0\r\n\r\n"

    def test_chunked_source_failing_at_once_writes_nothing(self):
        def chunks():
            raise KeyError("no first chunk")
            yield "never"

        out = io.BytesIO()
        with pytest.raises(KeyError):
            write_chunked(out, 200, {}, chunks())
        assert out.getvalue() == b""  # the caller can still answer 500
        write_chunked(out, 200, {}, [])  # no chunk at all is still a response
        assert out.getvalue().endswith(b"\r\n\r\n0\r\n\r\n")

    def test_chunked_failure_after_the_head_aborts_without_a_terminator(self):
        def chunks():
            yield "ab"
            raise KeyError("mid-stream")

        out = io.BytesIO()
        with pytest.raises(StreamAborted) as excinfo:
            write_chunked(out, 200, {}, chunks())
        assert isinstance(excinfo.value.__cause__, KeyError)
        raw = out.getvalue()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert raw.endswith(b"\r\n\r\n2\r\nab\r\n")  # head, one chunk, no 0-chunk

        class Gone(io.BytesIO):
            def flush(self):
                raise BrokenPipeError("client went away")

        with pytest.raises(StreamAborted) as excinfo:
            write_chunked(Gone(), 200, {}, ["ab"])
        assert isinstance(excinfo.value.__cause__, BrokenPipeError)
