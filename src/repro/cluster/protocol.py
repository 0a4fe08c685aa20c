"""Zero-copy framed IPC between the cluster supervisor and workers.

Every frame on the wire is ``4-byte big-endian length || payload``.  The
payload takes one of two encodings, told apart by its first byte:

* **JSON** (first byte ``{`` — i.e. any ``json.dumps`` of an object):
  sent whenever no string field reaches :data:`BLOB_THRESHOLD` and the
  message holds no ``bytes`` — the common case for control frames and
  typical responses.
* **Binary** (first byte ``0x00``):
  ``0x00 || 4-byte header length || JSON header || (4-byte blob length
  || blob bytes)*``.  Large string fields and all ``bytes`` fields are
  lifted out of the message before JSON encoding and shipped as raw
  length-prefixed blobs, so multi-kilobyte payloads (candidate lists,
  encoder features, result rows) are not round-tripped through
  ``json.dumps`` character escaping.  The header is the message with
  each lifted field replaced by a placeholder; the receiver re-inflates
  it.

The object always carries a ``"type"`` field; request/response frames
additionally carry an ``"id"`` so many requests can be in flight on one
connection and answers may arrive out of order.

:class:`FrameConnection` is the one way to speak the protocol: it
keeps one preallocated, geometrically-grown receive buffer per
connection (``recv_into`` on ``memoryview`` slices — no per-chunk
``bytes`` churn or reassembly joins) and writes each frame with a
single gathered ``sendmsg`` syscall referencing blob ``memoryview``\\ s
(no concatenation copy).  A reader interrupted mid-frame — EINTR, a
socket timeout, a one-byte-at-a-time peer — resumes cleanly on the next
call: partial frame state lives on the connection, not the stack.

Deadlines cross the process boundary as a *remaining budget* in seconds
(``budget_s``), not as an absolute timestamp: each side re-anchors the
budget against its own monotonic clock on receipt, so the protocol is
immune to wall-clock skew between supervisor and worker (they share a
host today, but the framing should not bake that in).

Frame types (supervisor -> worker):

* ``request``  — one translate call; fields mirror ``/translate``.
* ``ping``     — heartbeat probe; the worker answers with ``pong``
  carrying its health and metrics snapshots.
* ``shutdown`` — drain and exit (graceful; SIGKILL is the rude path).

Frame types (worker -> supervisor):

* ``ready``    — sent once after the worker warmed its shard.
* ``response`` — answer to a ``request`` (``payload`` is the serialized
  :class:`~repro.serving.service.ServeResponse`).
* ``reject``   — the worker could not accept the request (queue full,
  unknown database, stopping); always retriable at the cluster level.
* ``pong``     — heartbeat answer with ``health`` and ``metrics``.
"""

from __future__ import annotations

import json
import socket
import struct
import time

from repro.errors import ReproError

_LENGTH = struct.Struct("!I")

# Frames are small control/response objects; anything near this bound is
# a protocol bug (e.g. unbounded result rows), not a legitimate message.
MAX_FRAME_BYTES = 8 * 1024 * 1024

# Starting size of each connection's receive buffer (grown on demand).
_INITIAL_RECV_BUFFER = 64 * 1024

# First payload byte of a binary frame.  JSON payloads always
# start with "{" (0x7B), so the tag can never collide.
BINARY_TAG = 0x00

# Strings at least this long are shipped as raw UTF-8 blobs instead of
# being escaped through json.dumps.  Short strings stay inline: the
# placeholder + length prefix would cost more than the escaping.
BLOB_THRESHOLD = 1024

# Placeholder key marking a lifted field inside the binary header.  The
# NUL prefix keeps it out of the space of real field names; encoders
# refuse messages that happen to contain it rather than mis-decode.
_BLOB_KEY = "\x00blob"


class ProtocolError(ReproError):
    """Malformed or oversized frame, or a closed peer mid-frame."""


class PeerClosedError(ProtocolError):
    """The other end closed the connection at a frame boundary."""


# ----------------------------------------------------------- blob lifting


def _lift_blobs(value, blobs: list[bytes]):
    """Replace large strings / all bytes in ``value`` with placeholders.

    Returns the (possibly rebuilt) JSON-safe structure; lifted payloads
    are appended to ``blobs`` in placeholder-index order.
    """
    if isinstance(value, str):
        if len(value) >= BLOB_THRESHOLD:
            blobs.append(value.encode("utf-8"))
            return {_BLOB_KEY: [len(blobs) - 1, "s"]}
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        blobs.append(bytes(value))
        return {_BLOB_KEY: [len(blobs) - 1, "b"]}
    if isinstance(value, dict):
        if _BLOB_KEY in value:
            raise ProtocolError("message contains the reserved blob key")
        return {key: _lift_blobs(item, blobs) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lift_blobs(item, blobs) for item in value]
    return value


def _restore_blobs(value, blobs: list[memoryview]):
    """Inverse of :func:`_lift_blobs` over a decoded binary header."""
    if isinstance(value, dict):
        placeholder = value.get(_BLOB_KEY)
        if placeholder is not None and len(value) == 1:
            index, kind = placeholder
            blob = blobs[index]
            return str(blob, "utf-8") if kind == "s" else bytes(blob)
        return {key: _restore_blobs(item, blobs) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore_blobs(item, blobs) for item in value]
    return value


def _encode_payload_views(message: dict) -> list:
    """Encode ``message`` as a list of buffer views (without the length
    envelope); the caller prefixes the total length and gathers them
    into one write."""
    blobs: list[bytes] = []
    header = json.dumps(
        _lift_blobs(message, blobs), separators=(",", ":")
    ).encode("utf-8")
    if not blobs:
        # Nothing lifted: plain JSON is smaller and faster to decode.
        return [header]
    views: list = [bytes((BINARY_TAG,)) + _LENGTH.pack(len(header)), header]
    for blob in blobs:
        views.append(_LENGTH.pack(len(blob)))
        views.append(memoryview(blob))
    return views


def _decode_payload(view) -> dict:
    """Decode one frame payload (memoryview or bytes), either encoding."""
    if len(view) == 0:
        raise ProtocolError("empty frame payload")
    view = memoryview(view)
    try:
        if view[0] == BINARY_TAG:
            if len(view) < 1 + _LENGTH.size:
                raise ProtocolError("truncated binary frame header")
            (header_len,) = _LENGTH.unpack_from(view, 1)
            offset = 1 + _LENGTH.size
            if offset + header_len > len(view):
                raise ProtocolError("binary frame header exceeds payload")
            header = json.loads(str(view[offset:offset + header_len], "utf-8"))
            offset += header_len
            blobs: list[memoryview] = []
            while offset < len(view):
                if offset + _LENGTH.size > len(view):
                    raise ProtocolError("truncated blob length prefix")
                (blob_len,) = _LENGTH.unpack_from(view, offset)
                offset += _LENGTH.size
                if offset + blob_len > len(view):
                    raise ProtocolError("blob exceeds frame payload")
                blobs.append(view[offset:offset + blob_len])
                offset += blob_len
            message = _restore_blobs(header, blobs)
        else:
            # str() decodes straight from the buffer — no bytes() copy.
            message = json.loads(str(view, "utf-8"))
    except ProtocolError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError,
            IndexError, TypeError) as exc:
        raise ProtocolError(f"invalid frame payload: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame must be a JSON object with a string 'type'")
    return message


# --------------------------------------------------------- gathered writes


def _sendmsg_all(sock: socket.socket, views: list) -> None:
    """Write every view with as few syscalls as possible (EINTR-safe)."""
    pending = [memoryview(v) for v in views if len(v)]
    use_sendmsg = hasattr(sock, "sendmsg")
    while pending:
        try:
            if use_sendmsg:
                sent = sock.sendmsg(pending)
            else:  # pragma: no cover - platforms without sendmsg
                sent = sock.send(pending[0])
        except InterruptedError:  # pragma: no cover - EINTR resume
            continue
        while sent > 0:
            head = pending[0]
            if sent >= len(head):
                sent -= len(head)
                pending.pop(0)
            else:
                pending[0] = head[sent:]
                sent = 0


# ------------------------------------------------------ framed connection


class FrameConnection:
    """One framed peer connection with reusable zero-copy buffers.

    ``send`` and ``recv`` are independently single-threaded: one thread
    may read while another writes (they touch disjoint state), but
    concurrent senders must serialize externally (the cluster already
    holds a send lock per connection), as must concurrent readers.

    The receive buffer is preallocated and grown geometrically, never
    shrunk: a connection that once saw a large frame reads every later
    frame with zero allocations.  Partial-frame state survives
    ``recv()`` raising (EINTR surfacing, socket timeouts): the next call
    resumes exactly where the interrupted one stopped.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._recv_buf = bytearray(_INITIAL_RECV_BUFFER)
        self._recv_have = 0          # bytes of the current frame received
        self._body_len: int | None = None  # parsed length header, if any

    # ------------------------------------------------------------- sending

    def send(self, message: dict) -> None:
        """Serialize ``message`` and write one frame (single syscall in
        the common case, via ``sendmsg`` gather)."""
        payload = _encode_payload_views(message)
        total = sum(len(v) for v in payload)
        if total > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"refusing to send {total} byte frame (max {MAX_FRAME_BYTES})"
            )
        _sendmsg_all(self.sock, [_LENGTH.pack(total), *payload])

    # ----------------------------------------------------------- receiving

    def _fill(self, need: int) -> None:
        """Top up the receive buffer to ``need`` bytes of the current
        frame; resumable after EINTR/timeouts mid-frame."""
        if len(self._recv_buf) < need:
            grown = len(self._recv_buf)
            while grown < need:
                grown *= 2
            buf = bytearray(grown)
            buf[: self._recv_have] = self._recv_buf[: self._recv_have]
            self._recv_buf = buf
        view = memoryview(self._recv_buf)
        while self._recv_have < need:
            try:
                count = self.sock.recv_into(view[self._recv_have:need])
            except InterruptedError:  # pragma: no cover - EINTR resume
                continue
            if count == 0:
                if self._recv_have == 0 and self._body_len is None:
                    raise PeerClosedError("peer closed the connection")
                raise ProtocolError(
                    f"peer closed mid-frame ({self._recv_have}/{need} bytes)"
                )
            self._recv_have += count

    def recv(self) -> dict:
        """Read one frame; raises :class:`PeerClosedError` on clean EOF."""
        if self._body_len is None:
            self._fill(_LENGTH.size)
            (length,) = _LENGTH.unpack_from(self._recv_buf, 0)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"{length} byte frame exceeds {MAX_FRAME_BYTES}")
            if length == 0:
                raise ProtocolError("empty frame payload")
            self._body_len = length
        total = _LENGTH.size + self._body_len
        self._fill(total)
        try:
            return _decode_payload(
                memoryview(self._recv_buf)[_LENGTH.size:total]
            )
        finally:
            self._body_len = None
            self._recv_have = 0

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# --------------------------------------------------------- deadline budget


def remaining_budget_s(deadline: float, *, now: float | None = None) -> float:
    """Seconds left until a monotonic ``deadline`` (clamped at 0)."""
    now = time.monotonic() if now is None else now
    return max(0.0, deadline - now)


def budget_to_deadline(budget_s: float, *, now: float | None = None) -> float:
    """Re-anchor a received budget against the local monotonic clock."""
    now = time.monotonic() if now is None else now
    return now + max(0.0, float(budget_s))


# ------------------------------------------------------ frame constructors


def request_frame(
    request_id: int,
    question: str,
    database_id: str,
    *,
    beam_size: int | None,
    execute: bool,
    budget_s: float,
    inject_failure: bool = False,
    tenant_id: str | None = None,
    tenant_weight: int = 1,
    dialect: str | None = None,
) -> dict:
    # Tenant identity crosses the IPC boundary so worker-side fair
    # queueing and per-tenant metrics work without each worker holding
    # the registry; enforcement (auth/rate/quota) stays at the front
    # door, so the worker trusts these fields.  The dialect rides along
    # so each worker renders (and caches) in the requested flavor.
    return {
        "type": "request",
        "id": request_id,
        "question": question,
        "database_id": database_id,
        "beam_size": beam_size,
        "execute": execute,
        "budget_s": budget_s,
        "inject_failure": inject_failure,
        "tenant_id": tenant_id,
        "tenant_weight": tenant_weight,
        "dialect": dialect,
    }


def response_frame(request_id: int, payload: dict) -> dict:
    return {"type": "response", "id": request_id, "payload": payload}


def reject_frame(request_id: int, reason: str) -> dict:
    return {"type": "reject", "id": request_id, "reason": reason}


def ping_frame(ping_id: int) -> dict:
    return {"type": "ping", "id": ping_id}


def pong_frame(ping_id: int, health: dict, metrics: dict) -> dict:
    return {"type": "pong", "id": ping_id, "health": health, "metrics": metrics}


def ready_frame(worker_id: int, warm_s: float, databases: list[str]) -> dict:
    return {
        "type": "ready",
        "worker_id": worker_id,
        "warm_s": warm_s,
        "databases": databases,
    }


def refresh_frame(database_id: str | None = None) -> dict:
    """Ask a worker to force a KB refresh (all databases when id is None).

    Fire-and-forget by design: the worker's refresher does the rebuild on
    its own daemon thread and the result shows up in the health/metrics
    it already reports with every pong.
    """
    return {"type": "refresh", "database_id": database_id}


def shutdown_frame() -> dict:
    return {"type": "shutdown"}
