"""Load generator: keep-alive ``POST /translate`` from at most two threads.

Each thread owns one keep-alive connection.  Timestamps are
``time.monotonic_ns`` so they line up with the server's spans.  Bodies
are kept as raw bytes and parsed after the timed phase, so JSON decoding
does not sit inside any measured interval.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlparse


@dataclass
class Record:
    item: int            # index into the workload's question list
    due_ns: int          # when the request was due (closed loop: = send)
    send_ns: int
    recv_ns: int
    status: int          # HTTP status, 0 on a transport error
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.recv_ns - self.due_ns) / 1e6


class Connections:
    """Counts the connections open at once, and the most ever open."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.open_now = 0
        self.max_open = 0

    def opened_one(self) -> None:
        with self._lock:
            self.open_now += 1
            self.max_open = max(self.max_open, self.open_now)

    def closed_one(self) -> None:
        with self._lock:
            self.open_now -= 1


class Client:
    """One keep-alive HTTP connection; reconnects after a transport error."""

    def __init__(self, url: str, counter: Connections, timeout_s: float = 30.0):
        parsed = urlparse(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.timeout_s = timeout_s
        self.counter = counter
        self.conn: http.client.HTTPConnection | None = None

    def post(self, payload: bytes) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
            self.counter.opened_one()
        try:
            self.conn.request("POST", "/translate", body=payload,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
            self.counter.closed_one()


def payload_for(database_id: str, question: str, beam_size: int) -> bytes:
    return json.dumps({
        "question": question, "database_id": database_id,
        "beam_size": beam_size, "execute": True,
    }).encode()


def run_closed(url: str, payloads: list[bytes], picks: list[list[int]],
               seconds: float, counter: Connections) -> list[Record]:
    """Closed loop: thread ``t`` sends ``payloads[i]`` for each ``i`` of
    ``picks[t]`` in order, the next only after the previous answer, until
    ``seconds`` pass or its picks run out."""
    records: list[list[Record]] = [[] for _ in picks]
    stop_ns = time.monotonic_ns() + int(seconds * 1e9)

    def loop(slot: int) -> None:
        client = Client(url, counter)
        out = records[slot]
        try:
            for item in picks[slot]:
                if time.monotonic_ns() >= stop_ns:
                    break
                send = time.monotonic_ns()
                status, body = client.post(payloads[item])
                out.append(Record(item, send, send, time.monotonic_ns(), status, body))
        finally:
            client.close()

    _run_threads(loop, len(picks))
    return [record for chunk in records for record in chunk]


def run_open(url: str, payloads: list[bytes], offsets_s: list[float],
             connections: int, counter: Connections) -> list[Record]:
    """Open loop: request ``i`` is due at ``offsets_s[i]`` after start and
    goes out on whichever connection is free first.  Latency counts from
    the due time, so waiting for a busy connection is charged to it."""
    lock = threading.Lock()
    next_item = [0]
    records: list[list[Record]] = [[] for _ in range(connections)]
    start_ns = time.monotonic_ns() + 50_000_000
    due = [start_ns + int(offset * 1e9) for offset in offsets_s]

    def loop(slot: int) -> None:
        client = Client(url, counter)
        out = records[slot]
        try:
            while True:
                with lock:
                    item = next_item[0]
                    if item >= len(due):
                        return
                    next_item[0] += 1
                wait = (due[item] - time.monotonic_ns()) / 1e9
                if wait > 0:
                    time.sleep(wait)
                send = time.monotonic_ns()
                status, body = client.post(payloads[item])
                out.append(Record(item, due[item], send, time.monotonic_ns(),
                                  status, body))
        finally:
            client.close()

    _run_threads(loop, connections)
    return sorted((r for chunk in records for r in chunk), key=lambda r: r.item)


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(slot,), daemon=True)
               for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
