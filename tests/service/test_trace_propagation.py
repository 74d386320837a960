"""Distributed tracing end-to-end: one trace id across daemon hops.

The contract under test: a traced client mints ``trace_id``, stamps it
onto the v2 envelope, and every daemon the request touches — entry
node, forwarded owner, replicas — records its spans under that same id
in its own trace file, so ``repro trace merge`` can reassemble the
request afterwards.  Equally important is the negative space: untraced
clients talking to untraced daemons must produce wire bytes and store
traffic identical to a build that has never heard of tracing.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.obs import tracefile
from repro.obs.context import (
    TraceContext,
    current_span,
    current_trace,
    use_hub,
    use_trace,
)
from repro.obs.metrics import get_registry
from repro.obs.telemetry import EventKind, InMemorySink, JsonlSink, TelemetryHub
from repro.runtime import Workload
from repro.service import protocol
from repro.service.client import TuningClient
from repro.service.cluster import ClusterConfig, HashRing, node_address
from repro.service.daemon import DaemonConfig
from repro.service.fingerprint import kernel_fingerprint
from repro.service.store import TuningStore
from repro.sim import LaunchConfig
from tests.runtime.test_launcher import pressure_module
from tests.service.test_daemon import DaemonHarness


@pytest.fixture(scope="module")
def binary():
    return compile_binary(
        pressure_module(), "k", CompileOptions(arch=GTX680)
    )


@pytest.fixture()
def workload():
    return Workload(
        launch=LaunchConfig(grid_blocks=64, block_size=256),
        iterations=10,
        max_events_per_warp=1500,
    )


def _free_ports(count):
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@pytest.fixture()
def traced_ring(tmp_path):
    """Two ring daemons, each writing its own trace and log files."""
    ring = sorted(f"127.0.0.1:{port}" for port in _free_ports(2))
    harnesses = {}
    for node in ring:
        port = node_address(node)[1]
        store = TuningStore(tmp_path / f"store-{port}.jsonl")
        harness = DaemonHarness(
            store,
            DaemonConfig(
                port=port,
                log_file=tmp_path / f"log-{port}.jsonl",
                cluster=ClusterConfig(
                    node_id=node, ring=ring, replicas=1
                ),
            ),
            trace_file=tmp_path / f"trace-{port}.jsonl",
        )
        harness.__enter__()
        harnesses[node] = harness
    try:
        yield ring, harnesses, tmp_path
    finally:
        for harness in harnesses.values():
            harness.__exit__(None, None, None)


def _trace_ids(events):
    return {
        event["data"]["trace"]
        for event in events
        if isinstance(event["data"].get("trace"), str)
    }


def read_events(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


class TestForwardedTraceSpansBothDaemons:
    def test_one_trace_id_across_the_forward_hop(
        self, traced_ring, binary, workload, tmp_path
    ):
        ring, harnesses, trace_dir = traced_ring
        owner = HashRing(ring).owner(kernel_fingerprint(binary))
        entry = next(node for node in ring if node != owner)

        client_trace = tmp_path / "client.jsonl"
        hub = TelemetryHub(JsonlSink(client_trace))
        with use_hub(hub):
            response = TuningClient(
                port=node_address(entry)[1], timeout=60.0
            ).tune(binary, workload)
        hub.close()
        assert response["source"] == "tuned"
        assert response["node"] == owner

        client_events = read_events(client_trace)
        (trace_id,) = _trace_ids(client_events)
        per_node = {}
        for node in ring:
            port = node_address(node)[1]
            harnesses[node].engine.telemetry.flush()
            events = read_events(trace_dir / f"trace-{port}.jsonl")
            per_node[node] = [
                e for e in events if e["data"].get("trace") == trace_id
            ]
        # Both daemons saw the request under the client's trace id.
        assert all(per_node.values()), per_node
        # The owner actually ran the tune: engine spans joined the trace.
        owner_spans = {
            e["data"].get("name")
            for e in per_node[owner]
            if e["kind"] == "span_start"
        }
        assert {"daemon_request", "session"} <= owner_spans
        # The entry node only dispatched: request span, no session.
        entry_spans = {
            e["data"].get("name")
            for e in per_node[entry]
            if e["kind"] == "span_start"
        }
        assert "daemon_request" in entry_spans
        assert "session" not in entry_spans

    def test_merge_joins_the_files_into_one_causal_timeline(
        self, traced_ring, binary, workload, tmp_path
    ):
        ring, harnesses, trace_dir = traced_ring
        owner = HashRing(ring).owner(kernel_fingerprint(binary))
        entry = next(node for node in ring if node != owner)
        client_trace = tmp_path / "client.jsonl"
        hub = TelemetryHub(JsonlSink(client_trace))
        with use_hub(hub):
            TuningClient(
                port=node_address(entry)[1], timeout=60.0
            ).tune(binary, workload)
        hub.close()

        traces = {"client": read_events(client_trace)}
        for node in ring:
            port = node_address(node)[1]
            harnesses[node].engine.telemetry.flush()
            traces[f"n{port}"] = read_events(
                trace_dir / f"trace-{port}.jsonl"
            )
        merged = tracefile.merge_traces(traces)
        (trace_id,) = _trace_ids(traces["client"])
        hops = [e for e in merged if e["data"].get("trace") == trace_id]
        assert len({e["node"] for e in hops}) >= 2
        # Cause before effect: the client's request span starts first.
        first = min(hops, key=lambda e: e["ts"])
        assert first["node"] == "client"
        # And the whole thing renders as one Chrome document.
        doc = tracefile.to_chrome(merged)
        processes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "client" in processes and len(processes) == len(traces)


class TestDaemonSideTracing:
    def test_traced_daemon_mints_ids_for_untraced_clients(
        self, tmp_path
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        trace_file = tmp_path / "d.jsonl"
        with DaemonHarness(store, trace_file=trace_file) as harness:
            harness.client().ping()
            harness.engine.telemetry.flush()
            events = read_events(trace_file)
        assert len(_trace_ids(events)) == 1

    def test_untraced_daemon_stays_untraced(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client()
            client.ping()
            # The wire carries no trace fields either way; the daemon
            # leaves the response untouched.
            response = client.request(protocol.request("ping"))
        assert "trace_id" not in response

    def test_wire_parent_span_lands_on_the_daemon_span(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        trace_file = tmp_path / "d.jsonl"
        with DaemonHarness(store, trace_file=trace_file) as harness:
            wire = protocol.stamp_trace(
                protocol.request("ping"), "ab" * 8, 41
            )
            harness.client().request(wire)
            harness.engine.telemetry.flush()
            events = read_events(trace_file)
        start = next(
            e
            for e in events
            if e["data"].get("name") == "daemon_request"
            and e["kind"] == "span_start"
        )
        assert start["data"]["trace"] == "ab" * 8
        assert start["data"]["parent_span"] == 41

    def test_store_calls_run_in_the_request_context(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        peek = store.peek
        seen = []

        def recording_peek(key):
            seen.append((current_trace(), current_span()))
            return peek(key)

        store.peek = recording_peek
        with DaemonHarness(store) as harness:
            harness.client().request(
                protocol.stamp_trace(
                    protocol.request("query", key="ab" * 32), "ef" * 8, 5
                )
            )
        ((trace, active),) = seen
        assert trace == TraceContext("ef" * 8, 5)
        assert active is not None and active.name == "daemon_request"

    def test_request_exemplar_carries_the_trace_id(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(
            store, trace_file=tmp_path / "d.jsonl"
        ) as harness:
            harness.client().request(
                protocol.stamp_trace(protocol.request("ping"), "cd" * 8)
            )
        snapshot = get_registry().snapshot()
        family = next(
            f
            for f in snapshot["metrics"]
            if f["name"] == "orion_daemon_request_seconds"
        )
        exemplars = [
            s["exemplar"]["ref"]
            for s in family["samples"]
            if "exemplar" in s and s["labels"].get("type") == "ping"
        ]
        assert "cd" * 8 in exemplars


class TestConcurrentRequests:
    N = 8

    def test_each_overlapping_request_gets_one_span_under_its_wire_parent(
        self, tmp_path
    ):
        """N requests held inside the daemon at once, on its one loop
        thread: N ``daemon_request`` spans, each under its own trace id
        and wire parent, none nested under another request's span."""
        n = self.N
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store, trace_file=tmp_path / "d.jsonl") as harness:
            sink = InMemorySink()
            harness.engine.telemetry.add_sink(sink)
            daemon = harness.daemon
            store_call = daemon._store_call
            arrived = []
            all_inside = asyncio.Event()

            async def held_store_call(fn, *args):
                # Every request waits here, inside its span, until all
                # N are inside _dispatch together.
                arrived.append(fn)
                if len(arrived) == n:
                    all_inside.set()
                await asyncio.wait_for(all_inside.wait(), 30)
                return await store_call(fn, *args)

            daemon._store_call = held_store_call
            spans_before = get_registry().counter(
                "orion_spans_total"
            ).value(name="daemon_request")
            sent = {f"{i:016x}": 100 + i for i in range(n)}
            answers = []

            def query(trace_id, parent):
                with use_trace(TraceContext(trace_id, parent)):
                    answers.append(
                        harness.client(timeout=30.0).query("ab" * 32)
                    )

            threads = [
                threading.Thread(target=query, args=item)
                for item in sent.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(answers) == n
            assert all(a["found"] is False for a in answers)
            spans_after = get_registry().counter(
                "orion_spans_total"
            ).value(name="daemon_request")
        harness.engine.telemetry.close()
        starts = [
            e
            for e in sink.of(EventKind.SPAN_START)
            if e.data["name"] == "daemon_request"
        ]
        assert len(starts) == n
        assert {e.data["trace"]: e.data["parent_span"] for e in starts} == sent
        assert [e.data["parent"] for e in starts] == [None] * n
        ends = [
            e
            for e in sink.of(EventKind.SPAN_END)
            if e.data["name"] == "daemon_request"
        ]
        assert sorted(e.data["span"] for e in ends) == sorted(
            e.data["span"] for e in starts
        )
        assert spans_after - spans_before == n


class TestClientSideTracing:
    def test_untraced_request_stays_pristine_while_a_daemon_span_is_open(
        self, tmp_path
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        peek = store.peek
        inside, release = threading.Event(), threading.Event()

        def held_peek(key):
            inside.set()
            release.wait(30)
            return peek(key)

        store.peek = held_peek
        with DaemonHarness(store) as harness:
            held = threading.Thread(
                target=lambda: harness.client(timeout=30.0).query("cd" * 32)
            )
            held.start()
            try:
                assert inside.wait(30), "query never reached the store"
                client = harness.client()
                round_trip = client._round_trip
                sent = []

                def recording_round_trip(payload):
                    sent.append(protocol.encode_frame(payload))
                    return round_trip(payload)

                client._round_trip = recording_round_trip
                assert client.ping()["ok"] is True
            finally:
                release.set()
                held.join(timeout=30)
        assert not held.is_alive()
        assert sent == [protocol.encode_frame(protocol.request("ping"))]
        assert sent[0][4:] == b'{"type": "ping", "v": 2}'

    def test_untraced_client_request_bytes_are_pristine(self, tmp_path):
        # No hub, no ambient context, trace unset: the encoded frame
        # must be byte-identical to the pre-tracing protocol.
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client()
            payload = client._attempts  # sanity: the untraced path
            assert client._trace_context() is None
        frame = protocol.encode_frame(protocol.request("ping"))
        assert frame[4:] == b'{"type": "ping", "v": 2}'
        assert payload  # silence the unused warning

    def test_explicit_trace_true_mints_without_a_hub(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client(trace=True)
            ctx = client._trace_context()
            assert ctx is not None and len(ctx.trace_id) == 16
            assert harness.client(trace=False)._trace_context() is None

    def test_ambient_context_wins_over_minting(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client(trace=True)
            with use_trace(TraceContext("fe" * 8, 3)):
                ctx = client._trace_context()
            assert ctx.trace_id == "fe" * 8
            assert ctx.parent_span_id == 3

    def test_client_latency_histogram_charges_by_outcome(self, tmp_path):
        def _count(outcome):
            family = next(
                (
                    f
                    for f in get_registry().snapshot()["metrics"]
                    if f["name"] == "orion_client_request_seconds"
                ),
                None,
            )
            if family is None:
                return 0.0
            return sum(
                s["count"]
                for s in family["samples"]
                if s["labels"] == {"type": "ping", "outcome": outcome}
            )

        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            before = _count("ok")
            harness.client().ping()
            assert _count("ok") == before + 1
