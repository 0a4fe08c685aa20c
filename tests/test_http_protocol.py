"""Protocol-edge tests for the threaded HTTP front door.

The route matrix (``test_http_differential.py``) drives the server with
a real HTTP client; this one drives it with raw sockets to exercise what
an HTTP library never sends: split request lines, pipelined bursts,
oversized, chunked and malformed requests, and stalled headers.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.metrics import MetricsRegistry
from repro.serving import (
    DatabaseRuntime,
    ServingRequestHandler,
    ServingServer,
    TranslationService,
)
from repro.serving.service import ServeResponse


class FastService:
    """Deterministic, dependency-free service for transport tests."""

    def __init__(self):
        self.metrics = MetricsRegistry()

    def is_ready(self):
        return True

    def health(self):
        return {"status": "ok", "ready": True}

    def translate(self, question, database_id=None, **kwargs):
        response = ServeResponse(question=question, database_id="pets")
        response.sql = "SELECT 1"
        response.engine = "heuristic"
        return response


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture
def server():
    instance = ServingServer(("127.0.0.1", 0), FastService())
    _start(instance)
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture
def short_timeout(monkeypatch):
    """Shrink the handler's per-read socket timeout to 0.3 s."""
    assert ServingRequestHandler.timeout, "the handler ships without a read timeout"
    monkeypatch.setattr(ServingRequestHandler, "timeout", 0.3)


def _connect(server) -> socket.socket:
    sock = socket.create_connection(server.server_address[:2], timeout=10)
    sock.settimeout(10)
    return sock


def _read_response(
    sock: socket.socket, pending: bytearray | None = None
) -> tuple[int, dict[str, str], bytes]:
    """Read exactly one HTTP/1.1 response off a raw socket.

    Pass the same ``pending`` bytearray across calls when several
    responses may arrive back-to-back (pipelining): over-read bytes are
    kept there instead of being dropped.
    """
    buf = bytearray() if pending is None else pending
    while b"\r\n\r\n" not in buf:
        data = sock.recv(4096)
        assert data, f"connection closed mid-response: {bytes(buf)!r}"
        buf += data
    head, _, _ = bytes(buf).partition(b"\r\n\r\n")
    body_start = len(head) + 4
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        headers[name.decode().strip().lower()] = value.decode().strip()
    length = int(headers.get("content-length", "0"))
    while len(buf) < body_start + length:
        data = sock.recv(4096)
        assert data, "connection closed mid-body"
        buf += data
    body = bytes(buf[body_start:body_start + length])
    del buf[: body_start + length]
    return status, headers, body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()


def _post(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST /translate HTTP/1.1\r\nHost: t\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _assert_closed(sock: socket.socket, deadline_s: float = 10.0) -> None:
    sock.settimeout(deadline_s)
    leftover = b""
    while True:
        data = sock.recv(4096)  # raises on timeout = test failure
        if not data:
            return
        leftover += data
        assert len(leftover) < 1 << 20, "server kept streaming instead of closing"


class TestKeepAliveAndPipelining:
    def test_keep_alive_reuses_one_connection(self, server):
        sock = _connect(server)
        try:
            for _ in range(3):
                sock.sendall(_post({"question": "hi"}))
                status, headers, body = _read_response(sock)
                assert status == 200
                assert headers.get("connection") != "close"
                assert json.loads(body)["sql"] == "SELECT 1"
        finally:
            sock.close()

    def test_pipelined_requests_answered_in_order(self, server):
        sock = _connect(server)
        try:
            # One write carrying three different requests; responses
            # must come back in request order.
            sock.sendall(_get("/livez") + _post({"question": "q"}) + _get("/healthz"))
            pending = bytearray()
            status, _, body = _read_response(sock, pending)
            assert (status, json.loads(body)) == (200, {"live": True})
            status, _, body = _read_response(sock, pending)
            assert status == 200
            assert json.loads(body)["sql"] == "SELECT 1"
            status, _, body = _read_response(sock, pending)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            sock.close()

    def test_request_split_across_packets(self, server):
        sock = _connect(server)
        try:
            whole = _get("/livez")
            for i in range(0, len(whole), 7):  # 7-byte dribble
                sock.sendall(whole[i:i + 7])
                time.sleep(0.005)
            status, _, body = _read_response(sock)
            assert (status, json.loads(body)) == (200, {"live": True})
        finally:
            sock.close()


class TestProtocolErrors:
    def test_malformed_request_line_400_and_close(self, server):
        sock = _connect(server)
        try:
            sock.sendall(b"NONSENSE\r\nHost: t\r\n\r\n")
            status, headers, body = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            assert headers["content-type"] == "application/json"
            assert "NONSENSE" in json.loads(body)["error"]
            _assert_closed(sock)
        finally:
            sock.close()

    def test_oversized_content_length_413_before_body(self, server):
        sock = _connect(server)
        try:
            # Announce a 10 MiB body but send none: the server must
            # refuse from the header alone, not wait for the body.
            sock.sendall(
                b"POST /translate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 10485760\r\n\r\n"
            )
            status, headers, body = _read_response(sock)
            assert status == 413
            assert b"64 KiB" in body
            assert headers["connection"] == "close"
            _assert_closed(sock)
        finally:
            sock.close()

    def test_bad_content_length_400(self, server):
        sock = _connect(server)
        try:
            sock.sendall(
                b"POST /translate HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            _assert_closed(sock)
        finally:
            sock.close()

    def test_chunked_post_411_and_close(self, server):
        # The chunk bytes must not be read as a second request on the
        # kept-alive connection: exactly one JSON 411, then EOF.
        body = json.dumps({"question": "chunky"}).encode()
        sock = _connect(server)
        try:
            sock.sendall(
                b"POST /translate HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
            )
            status, headers, out = _read_response(sock)
            assert status == 411
            assert headers["connection"] == "close"
            assert "Transfer-Encoding" in json.loads(out)["error"]
            _assert_closed(sock)
        finally:
            sock.close()

    def test_oversized_header_block_431_json(self, server):
        sock = _connect(server)
        try:
            sock.sendall(
                b"GET /livez HTTP/1.1\r\n" + b"X-Pad: x\r\n" * 200 + b"\r\n"
            )
            status, headers, body = _read_response(sock)
            assert status == 431
            assert headers["content-type"] == "application/json"
            assert json.loads(body)["error"]
            _assert_closed(sock)
        finally:
            sock.close()


class TestDeadlines:
    def test_slowloris_header_stall_is_cut_off(self, short_timeout, server):
        sock = _connect(server)
        try:
            sock.sendall(b"GET /livez HTTP/1.1\r\nHost: t\r\n")  # never finishes
            start = time.monotonic()
            _assert_closed(sock, deadline_s=10.0)
            # Closed by the read timeout, not by the test timeout.
            assert time.monotonic() - start < 5.0
        finally:
            sock.close()

    def test_idle_keep_alive_connection_is_closed(self, short_timeout, server):
        sock = _connect(server)
        try:
            sock.sendall(_get("/livez"))
            assert _read_response(sock)[0] == 200
            start = time.monotonic()
            _assert_closed(sock, deadline_s=10.0)
            assert time.monotonic() - start < 5.0
        finally:
            sock.close()

    def test_fast_requests_unaffected_by_deadline(self, short_timeout, server):
        sock = _connect(server)
        try:
            sock.sendall(_get("/livez"))
            status, _, _ = _read_response(sock)
            assert status == 200
        finally:
            sock.close()


class TestRealService:
    def test_translate_against_a_real_service(self, pets_db):
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")], workers=2
        ).start()
        server = ServingServer(("127.0.0.1", 0), service)
        _start(server)
        try:
            sock = _connect(server)
            try:
                sock.sendall(_post({"question": "How many dogs are there?",
                                    "database_id": "pets"}))
                status, _, body = _read_response(sock)
                assert status == 200
                payload = json.loads(body)
                assert payload["sql"]
                assert payload["database_id"] == "pets"
            finally:
                sock.close()
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
