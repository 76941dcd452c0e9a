"""The read stage: connections are read without holding up anyone else's.

A client that connects and sends nothing, or sends a byte at a time, holds
only its own connection; one that leaves mid-request frees what it used;
one past the read deadline is closed; ``stop()`` closes what is being read
and still answers what was queued; unknown paths and wrong methods are
answered where the request is read, without an admission slot. Every
wait here is bounded.
"""

import http.client
import json
import os
import socket
import threading
import time
import urllib.parse

import pytest

from repro.rdf.terms import IRI, Literal, Triple
from repro.server import reader
from repro.server.app import ReproServer, ServerConfig
from repro.store.memory import MemoryStore

EX = "http://example.org/"
ASK = "/sparql?" + urllib.parse.urlencode({"query": "ASK { ?s ?p ?o }"})


def build_store(n: int = 50) -> MemoryStore:
    store = MemoryStore()
    for index in range(n):
        store.add(Triple(IRI(f"{EX}item/{index}"), IRI(EX + "value"),
                         Literal(index)))
    return store


def get(port: int, target: str, method: str = "GET", timeout: float = 5.0):
    """``(response, body)`` of one request, body read in full."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, target)
        response = connection.getresponse()
        return response, response.read()
    finally:
        connection.close()


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    return sock


def wait_for(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture()
def server():
    with ReproServer(build_store(), ServerConfig(workers=2)) as instance:
        yield instance


def test_health_answers_at_once_behind_eight_silent_connections(server):
    silent = [connect(server.port) for _ in range(8)]
    try:
        elapsed = []
        for _ in range(3):  # the best of three: a scheduler hiccup is not a stall
            started = time.perf_counter()
            response, _ = get(server.port, "/health", timeout=1.0)
            elapsed.append(time.perf_counter() - started)
            assert response.status == 200
        assert min(elapsed) < 0.05, elapsed
        response, body = get(server.port, ASK, timeout=1.0)
        assert response.status == 200 and json.loads(body)["boolean"] is True
    finally:
        for sock in silent:
            sock.close()


def test_a_dripping_client_does_not_delay_a_query(server):
    request = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
    answered = []

    def drip():
        sock = connect(server.port)
        try:
            for byte in request:
                sock.sendall(bytes([byte]))
                time.sleep(0.1)
            answered.append(sock.recv(4096))
        finally:
            sock.close()

    dripper = threading.Thread(target=drip)
    dripper.start()
    try:
        time.sleep(0.3)  # a few bytes in
        started = time.perf_counter()
        response, _ = get(server.port, ASK, timeout=2.0)
        elapsed = time.perf_counter() - started
        assert response.status == 200
        assert elapsed < 0.5, elapsed
        assert dripper.is_alive()  # the drip was still going on
    finally:
        dripper.join(timeout=10)
    assert not dripper.is_alive()
    assert answered and answered[0].startswith(b"HTTP/1.1 200 OK\r\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("payload", [
    b"GET /spar",  # mid-head
    b"POST /sparql HTTP/1.1\r\nContent-Length: 100\r\n\r\nquery=AS",  # mid-body
])
def test_a_client_leaving_mid_request_frees_what_it_used(server, payload):
    get(server.port, "/health")  # everything the server starts, started
    threads, fds = threading.active_count(), open_fds()
    before = server.stats()["responses_by_status"].get("400", 0)
    for _ in range(5):
        sock = connect(server.port)
        sock.sendall(payload)
        sock.close()
    # what arrived is read to its end and refused, as a cut-short request
    assert wait_for(lambda: server.stats()["responses_by_status"].get(
        "400", 0) == before + 5)
    assert wait_for(lambda: open_fds() <= fds)
    assert threading.active_count() == threads
    assert get(server.port, ASK)[0].status == 200


def test_a_connection_past_its_read_deadline_is_closed(monkeypatch):
    monkeypatch.setattr(reader, "READ_TIMEOUT_S", 0.3)
    with ReproServer(build_store(), ServerConfig(workers=1)) as server:
        silent = connect(server.port)
        partial = connect(server.port)
        partial.sendall(b"GET /health HTTP/1.1\r\n")  # a head never finished
        try:
            started = time.monotonic()
            for sock in (silent, partial):
                sock.settimeout(3.0)
                assert sock.recv(1) == b""  # closed, unanswered
            assert 0.25 <= time.monotonic() - started < 2.5
        finally:
            silent.close()
            partial.close()
        assert server.stats()["responses_by_status"] == {}
        assert get(server.port, "/health")[0].status == 200


def test_stop_closes_what_is_read_and_answers_what_is_queued():
    config = ServerConfig(workers=1, queue_capacity=2, debug_delay_ms=400.0)
    server = ReproServer(build_store(), config).start()
    port = server.port
    statuses, lock = [], threading.Lock()

    def issue():
        try:
            response, _ = get(port, ASK, timeout=10)
            result = (response.status, response.getheader("Retry-After"))
        except OSError as error:  # pragma: no cover - reported below
            result = (repr(error), None)
        with lock:
            statuses.append(result)

    clients = [threading.Thread(target=issue)]
    clients[0].start()
    try:
        assert wait_for(lambda: server.stats()["inflight"])  # the worker has one
        clients += [threading.Thread(target=issue) for _ in range(2)]
        for client in clients[1:]:
            client.start()
        assert wait_for(lambda: server.admission.depth == 2)
        reading = [connect(port) for _ in range(2)]
        reading[1].sendall(b"GET /health HTTP/1.1\r\n")
        time.sleep(0.05)
    finally:
        started = time.monotonic()
        server.stop()
        stopped = time.monotonic() - started
    try:
        assert stopped < 2.5, stopped
        for sock in reading:
            sock.settimeout(3.0)
            assert sock.recv(1) == b""
    finally:
        for sock in reading:
            sock.close()
    for client in clients:
        client.join(timeout=10)
    assert not any(client.is_alive() for client in clients)
    assert sorted(statuses, key=str) == [(200, None), (503, "1"), (503, "1")]


def test_unknown_path_is_answered_before_admission_even_when_full():
    config = ServerConfig(workers=1, queue_capacity=1, debug_delay_ms=500.0)
    with ReproServer(build_store(), config) as server:
        background = [
            threading.Thread(target=lambda: get(server.port, ASK, timeout=10))
            for _ in range(2)
        ]
        background[0].start()
        assert wait_for(lambda: server.stats()["inflight"])
        background[1].start()
        assert wait_for(lambda: server.admission.depth == 1)  # full
        try:
            response, body = get(server.port, "/nope", timeout=2)
            assert response.status == 404
            assert "no such resource" in json.loads(body)["error"]
            snapshot = server.admission.snapshot()
            assert (snapshot.admitted, snapshot.rejected) == (2, 0)
        finally:
            for thread in background:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in background)


def test_a_wrong_method_is_405_with_allow(server):
    response, body = get(server.port, ASK, method="DELETE")
    assert response.status == 405
    assert response.getheader("Allow") == "GET, POST"
    assert json.loads(body) == {"error": "use GET or POST"}
    assert server.admission.snapshot().admitted == 0
