"""The daemon wire format: length-prefixed JSON over a local socket.

One *frame* is a 4-byte big-endian length followed by that many bytes
of UTF-8 JSON.  Length prefixing (rather than newline delimiting)
keeps the framing independent of payload content — a tune request
carries a base64 multi-version binary that could be megabytes — and
lets the server reject oversized frames *before* buffering them.

Requests are objects with a protocol version and a ``type``::

    {"v": 1, "type": "tune", "binary": "<base64>", "workload": {...}}
    {"v": 1, "type": "query", "key": "<hex>"}
    {"v": 1, "type": "invalidate", "key": "<hex>"}
    {"v": 1, "type": "stats"}
    {"v": 1, "type": "ping"}
    {"v": 1, "type": "shutdown"}

Protocol **version 2** adds the daemon-to-daemon cluster verbs (see
:mod:`repro.service.cluster`); a v1 client keeps working unchanged —
the daemon accepts every version in :data:`SUPPORTED_VERSIONS` and
answers a v1 request exactly as a v1 daemon would::

    {"v": 2, "type": "forward", "hops": 1, "request": {...}}
    {"v": 2, "type": "replicate", "origin": "h:p", "generation": "...",
     "ops": [{"op": "put", "seq": 3, "key": "<hex>", "record": {...}}]}
    {"v": 2, "type": "sync", "requester": "h:p"}

``forward`` wraps a misplaced client request on its way to the ring
node that owns the key; ``hops`` counts daemon-to-daemon traversals
and is rejected with ``forward-loop`` once it exceeds the ring size.
``replicate`` ships op-log records (with the origin store's header
generation id) to replicas; ``sync`` is the pull-side catch-up a
(re)starting node sends each peer.

Any version-2 request may additionally carry **trace context** — two
optional envelope fields linking the request into a distributed trace
(see :mod:`repro.obs.context`)::

    {"v": 2, "type": "tune", ..., "trace_id": "9f2ab31c77d0e884",
     "parent_span_id": 3}

Envelope validation only ever checks ``v`` and ``type``, so the fields
are backward- and forward-compatible: a request without them is
byte-identical to one from before tracing existed, and an old daemon
ignores them.  :func:`trace_context` extracts them tolerantly (garbage
degrades to "untraced", never to an error).

Responses always carry ``ok``.  Failures add a machine-readable
``code`` and human-readable ``error``; ``queue-full`` rejections add
``retry_after`` (seconds), the backpressure signal clients honour
before retrying::

    {"ok": true, ...}
    {"ok": false, "code": "queue-full", "error": "...", "retry_after": 0.05}

A connection carries any number of exchanges, one at a time: a request
frame, then its response frame.  Both ends keep connections open
between exchanges (:class:`PeerPool` on the daemon side, the client's
idle sockets on the blocking side).  A kept-alive connection can die
while it sits idle, when its peer restarts or drains, so a round trip
that finds its reused connection closed by the peer
(:func:`peer_closed`) sends the request again once, on a fresh
connection.  A timeout is never a reason to send it again: the peer
may still be working on the request.

Both async (daemon-side) and blocking (client-side) frame helpers live
here so the two ends can never drift apart.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

PROTOCOL_VERSION = 2

#: every protocol version this daemon still speaks; v1 predates the
#: cluster verbs and stays accepted so old clients keep working
SUPPORTED_VERSIONS = (1, 2)

#: largest accepted frame; a fat binary with dozens of versions is
#: well under a megabyte, so 16 MiB is generous without letting a
#: malformed length prefix allocate unbounded memory
MAX_FRAME_BYTES = 16 * 1024 * 1024

REQUEST_TYPES = (
    "tune",
    "query",
    "invalidate",
    "stats",
    "ping",
    "shutdown",
    "forward",
    "replicate",
    "sync",
)

#: request types that only exist from protocol version 2 on
V2_REQUEST_TYPES = ("forward", "replicate", "sync")

#: request types a ``forward`` frame may wrap (client-plane only;
#: wrapping another forward — or a cluster verb — would allow loops
#: the hop counter cannot see)
FORWARDABLE_TYPES = ("tune", "query", "invalidate")

#: failure codes responses may carry
CODE_BAD_REQUEST = "bad-request"
CODE_QUEUE_FULL = "queue-full"
CODE_TIMEOUT = "timeout"
CODE_INTERNAL = "internal"
CODE_SHUTTING_DOWN = "shutting-down"
CODE_FORWARD_LOOP = "forward-loop"

_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed, oversized, or truncated frame."""


class PeerClosed(ProtocolError):
    """The peer closed the connection before the first byte of a frame."""


def peer_closed(exc: BaseException) -> bool:
    """Did the peer close the connection before answering?

    True for an end of stream before the response's first byte, a reset
    and a broken pipe.  On a reused connection these mean the peer
    closed it while it sat idle, and never read the request.  A timeout
    is not one of them, though on Python 3.11 ``socket.timeout`` and
    ``asyncio.TimeoutError`` are ``OSError`` subclasses too.
    """
    return isinstance(exc, (PeerClosed, ConnectionResetError, BrokenPipeError))


def encode_frame(payload: dict) -> bytes:
    """Serialize one request/response object into a wire frame."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the limit")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame body is not a JSON object")
    return payload


def _check_length(raw: bytes) -> int:
    (length,) = _LENGTH.unpack(raw)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the limit")
    return length


# ----------------------------------------------------------------------
# Async side (daemon)
# ----------------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF before a length prefix."""
    try:
        raw = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid length prefix") from None
    length = _check_length(raw)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid frame") from None
    return decode_body(body)


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


class PeerPool:
    """Kept-alive connections to peer daemons, one list of idle ones per
    peer address.

    One per daemon, used from its event loop only.  A round trip takes an
    idle connection to the peer, or opens one, and gives it back only
    after a whole response; an error, a timeout or a cancellation closes
    it instead.  So a peer never holds more idle connections than the
    most round trips to it this daemon had in flight at once, and the
    pool needs no size bound and no idle timeout.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list] = {}

    async def round_trip(
        self, host: str, port: int, payload: dict, timeout: float = 10.0
    ) -> dict:
        """One request/response exchange with a peer daemon.

        ``timeout`` bounds the connect, and separately the write and the
        response read together.  A forwarded cold tune legitimately takes
        seconds, so callers pass their request deadline rather than a
        connect-scale value.  A reused connection that the peer closed
        meanwhile is replaced by a fresh one, once.
        """
        idle = self._idle.setdefault((host, port), [])
        if idle:
            try:
                return await _exchange(idle, idle.pop(), payload, timeout)
            except (OSError, ProtocolError) as exc:
                if not peer_closed(exc):
                    raise
        connection = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return await _exchange(idle, connection, payload, timeout)

    async def close(self) -> None:
        """Close every idle connection."""
        writers = [writer for idle in self._idle.values() for _, writer in idle]
        self._idle.clear()
        for writer in writers:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the peer reset it first


async def _exchange(
    idle: list, connection: tuple, payload: dict, timeout: float
) -> dict:
    """Write ``payload``, read the response, then park the connection."""
    reader, writer = connection
    try:
        response = await asyncio.wait_for(
            _request(reader, writer, payload), timeout
        )
    except BaseException:
        writer.transport.abort()
        raise
    idle.append(connection)
    return response


async def _request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, payload: dict
) -> dict:
    await write_frame(writer, payload)
    response = await read_frame(reader)
    if response is None:
        raise PeerClosed("peer closed before responding")
    return response


# ----------------------------------------------------------------------
# Blocking side (client)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, payload: dict) -> None:
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> dict:
    """Read one frame; :class:`PeerClosed` if the peer closed the
    connection before its first byte."""
    first = sock.recv(_LENGTH.size)
    if not first:
        raise PeerClosed("peer closed before a frame")
    raw = first + _recv_exactly(sock, _LENGTH.size - len(first))
    length = _check_length(raw)
    return decode_body(_recv_exactly(sock, length))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Request/response construction helpers
# ----------------------------------------------------------------------
def request(type_: str, **fields) -> dict:
    return {"v": PROTOCOL_VERSION, "type": type_, **fields}


def ok(**fields) -> dict:
    return {"ok": True, **fields}


def error(code: str, message: str, retry_after: float | None = None) -> dict:
    payload = {"ok": False, "code": code, "error": message}
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return payload


def trace_context(payload: dict) -> tuple[str | None, int | None]:
    """The optional ``(trace_id, parent_span_id)`` envelope fields.

    Tolerant by design: a missing, empty, or mistyped ``trace_id``
    yields ``(None, None)`` (the request simply is not traced) and a
    mistyped ``parent_span_id`` is dropped while the trace id is kept.
    Trace context must never be able to fail an otherwise valid
    request.
    """
    trace_id = payload.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None, None
    parent = payload.get("parent_span_id")
    if isinstance(parent, bool) or not isinstance(parent, int):
        parent = None
    return trace_id, parent


def stamp_trace(
    payload: dict, trace_id: str, parent_span_id: int | None = None
) -> dict:
    """A copy of ``payload`` carrying the trace-context fields."""
    stamped = dict(payload)
    stamped["trace_id"] = trace_id
    if parent_span_id is not None:
        stamped["parent_span_id"] = parent_span_id
    else:
        stamped.pop("parent_span_id", None)
    return stamped


def validate_request(payload: dict) -> str:
    """Check the envelope; returns the request type.

    Raises :class:`ProtocolError` with a client-presentable message on
    any envelope problem (bad version, unknown type, or a cluster verb
    sent under protocol version 1).
    """
    version = payload.get("v")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this daemon speaks {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    type_ = payload.get("type")
    if type_ not in REQUEST_TYPES:
        raise ProtocolError(f"unknown request type {type_!r}")
    if type_ in V2_REQUEST_TYPES and version < 2:
        raise ProtocolError(
            f"request type {type_!r} needs protocol version 2"
        )
    return type_
