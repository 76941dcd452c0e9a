"""The read stage: requests read off their connections without holding
up anyone else's.

One ``selectors`` loop owns the listening socket and every connection
still being read, each with its own buffer and a deadline
``READ_TIMEOUT_S`` after accept. A connection is handed on with its bytes
once they hold a whole request (:func:`~repro.server.http.request_complete`)
or the peer stops sending (a request cut short, which ``read_request``
refuses); one past its deadline is closed unanswered. Past ``bound``
connections being read at once, a new one is handed on with no bytes, to
be refused. So a client that connects and sends nothing holds only its own
connection: ``/health`` behind any number of them answers at once.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Callable

from ..obs import record_error
from .http import request_complete

__all__ = ["READ_TIMEOUT_S", "TICK_S", "read_loop"]

READ_TIMEOUT_S = 10.0
TICK_S = 0.1  # how long the loop (and the workers) wait to see a stop
RECV_BYTES = 65536


def read_loop(
    listener: socket.socket,
    stop: threading.Event,
    bound: int,
    deliver: Callable[[socket.socket, float, bytes | None], None],
) -> None:
    """Read until ``stop`` is set, then close the (non-blocking)
    ``listener`` and whatever is still being read. ``deliver(connection,
    accepted_at, data)`` runs on this thread and owns the connection from
    then on; ``data`` is ``None`` for one accepted past ``bound``."""
    # Confined to this thread: connection → (accept time, bytes so far),
    # in accept order, which is deadline order.
    reading: dict[socket.socket, tuple[float, bytearray]] = {}
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ)

    def hand_on(connection, accepted_at, data) -> None:
        try:
            deliver(connection, accepted_at, data)
        except Exception as exc:  # keep reading no matter what
            record_error("server.read", exc)
            connection.close()

    def receive(connection, accepted_at, buffer) -> None:
        """Read what is there; hand the connection on once it is done."""
        try:
            data = connection.recv(RECV_BYTES, socket.MSG_DONTWAIT)
        except BlockingIOError:
            # repro: swallow(nothing to read yet: wait for the next event)
            data = None
        except OSError:
            # repro: swallow(reset by the peer: nobody left to answer)
            data = buffer = b""
        if data:
            buffer += data
        if data is None or data and not request_complete(buffer):
            if connection not in reading:
                reading[connection] = (accepted_at, buffer)
                selector.register(connection, selectors.EVENT_READ)
            return
        if reading.pop(connection, None) is not None:
            selector.unregister(connection)
        if buffer:
            hand_on(connection, accepted_at, bytes(buffer))
        else:
            connection.close()

    try:
        while not stop.is_set():
            for key, _ in selector.select(TICK_S):
                connection = key.fileobj
                if connection is not listener:
                    receive(connection, *reading[connection])
                    continue
                try:
                    connection, _address = listener.accept()
                except OSError:
                    # repro: swallow(taken already, or closed by stop())
                    continue
                accepted_at = time.monotonic()
                if len(reading) >= bound:
                    hand_on(connection, accepted_at, None)
                else:  # most requests are in by now: one read, no waiting
                    receive(connection, accepted_at, bytearray())
            now = time.monotonic()
            for connection in [connection for connection, (accepted_at, _)
                               in reading.items()
                               if now - accepted_at >= READ_TIMEOUT_S]:
                selector.unregister(connection)
                del reading[connection]
                connection.close()
    finally:
        for connection in [listener, *reading]:
            connection.close()
        selector.close()
