"""HTTP framing at the server edge: a malformed request gets a typed 400.

The server frames requests itself (``SolveServer._read_request``). A
request line that is not ``METHOD target HTTP/x.y``, a request or
header line longer than the stream limit, a header line without a
colon, and a repeated ``Content-Length`` (RFC 9112 §6.3) each get a 400
naming the fault, counted in ``serve.requests_by_status``, and then the
server closes the connection. The ``hypothesis`` suites throw random
bytes, line lengths around the limit, and header framings at a live
server: every input gets typed 4xx answers and a close, or a clean
close at end of stream when there was no input at all, and ``GET
/health`` on a fresh connection still answers 200 afterwards.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServeClient, ServerConfig, serve_in_thread
from repro.serve.server import _LINE_LIMIT

STATUS_400 = 'serve.requests_by_status{status="400"}'


@pytest.fixture(scope="module")
def served():
    config = ServerConfig(backend="serial", workers=1, read_timeout_s=2.0)
    with serve_in_thread(config) as handle:
        yield ServeClient(handle.host, handle.port)


def _exchange(client, data: bytes, *, half_close: bool) -> bytes:
    """Send ``data`` and read until the server closes the connection.

    With ``half_close`` the client shuts its sending side first, so the
    server sees end of stream after ``data``; without it, only the
    server can end the exchange (a hang fails on the socket timeout).
    """
    with socket.create_connection((client.host, client.port), timeout=10.0) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        raw = b""
        while chunk := sock.recv(1 << 16):
            raw += chunk
    return raw


def _responses(raw: bytes) -> list:
    """Split a response stream into ``(status, headers, payload)``."""
    out = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {k.lower(): v for k, _, v in (ln.partition(": ") for ln in lines)}
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        assert len(body) == length
        out.append((int(status), headers, json.loads(body)))
    return out


def _assert_typed_4xx_then_close(data: bytes, raw: bytes) -> None:
    """``raw`` answers ``data`` with at least one 4xx, each with a JSON
    error, and a ``Connection: close`` answer is the last one. Only an
    empty ``data`` may get a clean close with no answer."""
    answers = _responses(raw)
    assert answers or not data, f"no answer to {data[:200]!r}"
    for i, (status, headers, payload) in enumerate(answers):
        assert 400 <= status < 500, (status, payload)
        assert isinstance(payload.get("error"), str) and payload["error"]
        if headers["connection"] == "close":
            assert i == len(answers) - 1


def _assert_still_healthy(client) -> None:
    assert client.health()["status"] == "ok"


@pytest.mark.parametrize(
    "request_bytes, fault",
    [
        (b"GARBAGE\r\n\r\n", "malformed request line"),
        (b"GET /health\r\n\r\n", "malformed request line"),
        (b"GET /health FTP/1.1\r\n\r\n", "malformed request line"),
        (b"GET /a b HTTP/1.1\r\n\r\n", "malformed request line"),
        (b"GET /" + b"a" * (_LINE_LIMIT + 10) + b" HTTP/1.1\r\n\r\n", "request line longer than"),
        (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * (_LINE_LIMIT + 10) + b"\r\n\r\n", "header line longer than"),
        (b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n", "malformed header line"),
        (b"GET /health HTTP/1.1\r\n: empty name\r\n\r\n", "malformed header line"),
        (
            b"POST /instances HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 40\r\n\r\n{}",
            "repeated Content-Length",
        ),
        (
            b"POST /instances HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}",
            "repeated Content-Length",
        ),
    ],
    ids=[
        "garbage", "no-version", "bad-version", "four-tokens", "long-request-line",
        "long-header-line", "header-no-colon", "header-empty-name",
        "content-length-2-then-40", "content-length-repeated-equal",
    ],
)
def test_malformed_framing_is_a_counted_400_then_close(served, request_bytes, fault):
    before = served.metrics()["counters"].get(STATUS_400, 0)
    # no half-close: the server itself must answer and end the exchange
    (answer,) = _responses(_exchange(served, request_bytes, half_close=False))
    status, headers, payload = answer
    assert status == 400
    assert headers["connection"] == "close"
    assert fault in payload["error"]
    assert served.metrics()["counters"][STATUS_400] == before + 1
    _assert_still_healthy(served)


def test_line_at_the_limit_still_frames(served):
    """A request line just under the limit is read whole: it frames,
    and the unknown path gets a 404, not a framing 400."""
    path = b"/" + b"a" * (_LINE_LIMIT - 32)
    (answer,) = _responses(_exchange(served, b"GET " + path + b" HTTP/1.1\r\n\r\n", half_close=True))
    assert answer[0] == 404


# -- fuzz ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=512))
def test_random_bytes_get_typed_4xx_or_clean_close(served, data):
    _assert_typed_4xx_then_close(data, _exchange(served, data, half_close=True))
    _assert_still_healthy(served)


@settings(max_examples=30, deadline=None)
@given(
    where=st.sampled_from(["request", "header"]),
    length=st.integers(_LINE_LIMIT - 64, _LINE_LIMIT + 64),
    tail=st.sampled_from([b"\r\n\r\n", b"\n\n", b"\r\n", b""]),
)
def test_line_lengths_around_the_limit(served, where, length, tail):
    if where == "request":
        data = b"GET /" + b"a" * length + b" HTTP/1.1" + tail
    else:
        data = b"GET /nowhere HTTP/1.1\r\nX-Pad: " + b"a" * length + tail
    _assert_typed_4xx_then_close(data, _exchange(served, data, half_close=True))
    _assert_still_healthy(served)


HEADER_LINES = st.sampled_from([
    b"Host: test",
    b"Connection: close",
    b"Connection: keep-alive",
    b"Content-Length: 0",
    b"Content-Length: 2",
    b"Content-Length: 7",
    b"Content-Length: -1",
    b"Content-Length: 1e3",
    b"Content-Length: 2, 2",
    b"Transfer-Encoding: chunked",
    b"X-Repro-Trace-Id: fuzz",
    b"no colon",
    b": no name",
    b"  folded continuation",
    b"",
])


@settings(max_examples=150, deadline=None)
@given(
    start=st.sampled_from([b"GET /nowhere", b"POST /health", b"POST /instances", b"POST /solve"]),
    version=st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/9.9"]),
    headers=st.lists(HEADER_LINES, max_size=6),
    newline=st.sampled_from([b"\r\n", b"\n"]),
    # longer than any Content-Length above, so no body is ever cut short
    body=st.binary(min_size=8, max_size=24),
)
def test_header_framings_get_typed_4xx_or_clean_close(served, start, version, headers, newline, body):
    data = newline.join([start + b" " + version, *headers]) + newline + newline + body
    _assert_typed_4xx_then_close(data, _exchange(served, data, half_close=True))
    _assert_still_healthy(served)
