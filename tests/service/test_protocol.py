"""Wire-format tests: framing, limits, envelope validation."""

import asyncio
import socket
import struct
import threading

import pytest

from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)


class TestFraming:
    def test_encode_decode_round_trip(self):
        payload = {"v": 1, "type": "ping", "extra": [1, 2, {"x": "y"}]}
        frame = protocol.encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert protocol.decode_body(frame[4:]) == payload

    def test_sync_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"v": 1, "type": "query", "key": "deadbeef" * 8}
            sender = threading.Thread(
                target=protocol.send_frame, args=(a, payload)
            )
            sender.start()
            assert protocol.recv_frame(b) == payload
            sender.join()
        finally:
            a.close()
            b.close()

    def test_oversized_payload_rejected_on_encode(self):
        huge = {"blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.encode_frame(huge)

    def test_oversized_length_prefix_rejected_before_buffering(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"{}")
            a.close()
            with pytest.raises(ProtocolError, match="closed"):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_clean_eof_before_a_frame_is_peer_closed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(protocol.PeerClosed):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_non_json_body_raises(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            protocol.decode_body(b"\xff\xfe not json")

    def test_non_object_body_raises(self):
        with pytest.raises(ProtocolError, match="not a JSON object"):
            protocol.decode_body(b"[1, 2, 3]")


class TestEnvelope:
    def test_request_carries_version(self):
        assert protocol.request("ping") == {
            "v": PROTOCOL_VERSION,
            "type": "ping",
        }

    def test_validate_accepts_known_types(self):
        for type_ in protocol.REQUEST_TYPES:
            assert protocol.validate_request(protocol.request(type_)) == type_

    def test_validate_rejects_wrong_version(self):
        with pytest.raises(ProtocolError, match="protocol version"):
            protocol.validate_request({"v": 99, "type": "ping"})

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown request type"):
            protocol.validate_request({"v": PROTOCOL_VERSION, "type": "nope"})

    def test_error_carries_retry_after_only_when_set(self):
        plain = protocol.error("timeout", "too slow")
        assert plain == {"ok": False, "code": "timeout", "error": "too slow"}
        hinted = protocol.error("queue-full", "busy", retry_after=0.25)
        assert hinted["retry_after"] == 0.25

    def test_cluster_verbs_rejected_under_version_1(self):
        for type_ in protocol.V2_REQUEST_TYPES:
            with pytest.raises(ProtocolError, match="needs protocol version"):
                protocol.validate_request({"v": 1, "type": type_})

    def test_version_1_requests_still_validate(self):
        for type_ in ("tune", "query", "invalidate", "stats", "ping",
                      "shutdown"):
            assert protocol.validate_request({"v": 1, "type": type_}) == type_

    def test_forwardable_types_exclude_cluster_verbs(self):
        # A forward wrapping a forward (or any cluster verb) would let
        # loops hide from the hop counter.
        assert not set(protocol.FORWARDABLE_TYPES) & set(
            protocol.V2_REQUEST_TYPES
        )
        assert "shutdown" not in protocol.FORWARDABLE_TYPES


class TestTraceEnvelope:
    """Optional trace fields: tolerated, never required, never leaked."""

    def test_trace_free_request_bytes_are_unchanged(self):
        # The trace fields must cost untraced traffic nothing: a plain
        # v2 ping still encodes to exactly the pre-tracing bytes.
        frame = protocol.encode_frame(protocol.request("ping"))
        assert frame[4:] == b'{"type": "ping", "v": 2}'

    def test_v1_request_bytes_are_unchanged(self):
        frame = protocol.encode_frame({"v": 1, "type": "ping"})
        assert frame[4:] == b'{"type": "ping", "v": 1}'

    def test_stamp_trace_round_trip(self):
        wire = protocol.stamp_trace(
            protocol.request("tune"), "9f2ab31c77d0e884", 3
        )
        assert wire["trace_id"] == "9f2ab31c77d0e884"
        assert wire["parent_span_id"] == 3
        assert protocol.trace_context(wire) == ("9f2ab31c77d0e884", 3)
        # Validation is indifferent to the extra fields.
        assert protocol.validate_request(wire) == "tune"

    def test_stamp_trace_does_not_mutate_the_original(self):
        original = protocol.request("ping")
        protocol.stamp_trace(original, "abcd" * 4)
        assert "trace_id" not in original

    def test_stamp_without_parent_drops_stale_parent(self):
        wire = protocol.stamp_trace(protocol.request("ping"), "ab" * 8, 7)
        restamped = protocol.stamp_trace(wire, "cd" * 8)
        assert "parent_span_id" not in restamped

    def test_trace_context_tolerates_absent_fields(self):
        assert protocol.trace_context({"v": 2, "type": "ping"}) == (None, None)

    def test_trace_context_tolerates_garbage(self):
        # Mistyped or empty trace fields degrade to untraced, never to
        # a protocol error — old clients, new daemons, and vice versa.
        for trace_id in ("", 17, None, ["x"], {"id": "x"}):
            payload = {"v": 2, "type": "ping", "trace_id": trace_id}
            assert protocol.trace_context(payload) == (None, None)
        for parent in ("3", 3.5, True, None, [3]):
            payload = {
                "v": 2,
                "type": "ping",
                "trace_id": "ab" * 8,
                "parent_span_id": parent,
            }
            assert protocol.trace_context(payload) == ("ab" * 8, None)

    def test_traced_v1_request_still_validates(self):
        # A misbehaving client stamping trace fields onto v1 must not
        # break the daemon: v1 validation ignores unknown fields.
        payload = {"v": 1, "type": "ping", "trace_id": "ab" * 8}
        assert protocol.validate_request(payload) == "ping"


class TestAsyncFraming:
    """The daemon-side stream readers (satellite edge cases)."""

    @staticmethod
    def _read(data: bytes, *, eof: bool = True):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            if eof:
                reader.feed_eof()
            return await protocol.read_frame(reader)

        return asyncio.run(go())

    def test_clean_eof_before_any_prefix_returns_none(self):
        assert self._read(b"") is None

    def test_partial_length_prefix_at_eof_raises(self):
        # 2 of the 4 length bytes, then the peer vanished: this must be
        # a ProtocolError, never a hang or a silent None.
        with pytest.raises(ProtocolError, match="mid length prefix"):
            self._read(struct.pack(">I", 10)[:2])

    def test_oversized_frame_rejected_before_buffering_async(self):
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            self._read(prefix + b"x" * 32, eof=False)

    def test_body_cut_mid_frame_raises(self):
        with pytest.raises(ProtocolError, match="mid frame"):
            self._read(struct.pack(">I", 100) + b'{"v":')


class TestReconnectRule:
    """Only a peer that closed a reused connection earns a resend."""

    def test_peer_closed_is_a_condition_not_an_exception_class(self):
        for closed in (
            protocol.PeerClosed("peer closed before a frame"),
            ConnectionResetError(),
            BrokenPipeError(),
        ):
            assert protocol.peer_closed(closed)
        # Both timeouts are OSErrors on Python 3.11; neither means the
        # peer dropped the request.
        for other in (
            socket.timeout(),
            asyncio.TimeoutError(),
            ConnectionRefusedError(),
            ProtocolError("connection closed mid frame"),
        ):
            assert not protocol.peer_closed(other)

    def test_pool_timeout_on_a_reused_connection_sends_once(self):
        """The peer answers the first frame and sits on the second: the
        round trip times out, and the peer never sees the frame again."""

        async def run() -> tuple[list, int]:
            frames: list = []
            connections = 0

            async def peer(reader, writer) -> None:
                nonlocal connections
                connections += 1
                try:
                    frames.append(await protocol.read_frame(reader))
                    await protocol.write_frame(writer, protocol.ok())
                    frames.append(await protocol.read_frame(reader))
                    await reader.read()  # until the pool drops it
                except ConnectionError:
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(peer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = protocol.PeerPool()
            ping = protocol.request("ping")
            assert await pool.round_trip("127.0.0.1", port, ping) == {"ok": True}
            with pytest.raises(asyncio.TimeoutError):
                await pool.round_trip("127.0.0.1", port, ping, timeout=0.2)
            await asyncio.sleep(0.2)  # time for a resend to arrive
            await pool.close()
            server.close()
            await server.wait_closed()
            return frames, connections

        frames, connections = asyncio.run(run())
        assert frames == [protocol.request("ping")] * 2
        assert connections == 1
