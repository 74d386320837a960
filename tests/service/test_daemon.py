"""Daemon end-to-end tests: warm starts, failure modes, load discipline.

Each test runs a real :class:`TuningDaemon` on an ephemeral localhost
port inside a background event-loop thread, and talks to it with the
real sync client — the same bytes CI's service job pushes over the
socket.
"""

import asyncio
import base64
import socket
import struct
import threading
import time

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.compiler.multiversion import MultiVersionBinary
from repro.isa.encoding import CodecError
from repro.obs.metrics import get_registry
from repro.obs.telemetry import EventKind
from repro.runtime import Workload
from repro.runtime.engine import ExecutionEngine
from repro.service import protocol
from repro.service.client import (
    ServiceRejected,
    ServiceUnavailable,
    TuningClient,
    tune_with_fallback,
)
from repro.service import client as client_module
from repro.service import daemon as daemon_module
from repro.service.daemon import DaemonConfig, TuningDaemon, workload_from_payload
from repro.service.store import TuningStore
from repro.sim import LaunchConfig
from repro.sim.backend import get_backend
from tests.helpers import corrupt_hotspot, corrupt_version, count_decodes, payloads
from tests.runtime.test_launcher import pressure_module


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


class SlowBackend:
    """The timing backend with an artificial per-measurement delay."""

    name = "timing"

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self._inner = get_backend("timing")

    def measure(self, request):
        time.sleep(self.delay)
        return self._inner.measure(request)


class DaemonHarness:
    """A daemon on a background event-loop thread, stopped on exit.

    Exiting first closes every client :meth:`client` made, and last the
    engine's telemetry hub, so a trace file the daemon wrote is complete
    and closed.
    """

    def __init__(self, store, config=None, backend="timing", trace_file=None):
        self.engine = ExecutionEngine(
            GTX680, backend=backend, trace_file=trace_file
        )
        self.daemon = TuningDaemon(self.engine, store, config)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._clients: list[TuningClient] = []

    def __enter__(self) -> "DaemonHarness":
        started = threading.Event()

        def run() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)

            async def go() -> None:
                await self.daemon.start()
                started.set()
                await self.daemon.serve_forever()

            self._loop.run_until_complete(go())
            self._loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert started.wait(10), "daemon failed to start"
        return self

    def __exit__(self, *exc) -> None:
        for client in self._clients:
            client.close()
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self.daemon.stop)
        self._thread.join(timeout=10)
        self.engine.telemetry.close()

    @property
    def port(self) -> int:
        return self.daemon.port

    def client(self, **kwargs) -> TuningClient:
        client = TuningClient(port=self.port, **kwargs)
        self._clients.append(client)
        return client


def _backend_invocations() -> float:
    counter = get_registry().counter(
        "orion_backend_invocations_total",
        "Backend measurements actually executed (cache misses).",
    )
    return counter.value(backend="timing")


def _connections() -> float:
    return get_registry().counter(
        "orion_daemon_connections_total", "Connections the daemon accepted."
    ).value()


class TestWarmStartViaDaemon:
    def test_second_submit_is_a_store_hit_with_zero_measurements(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            first = harness.client().tune(binary, workload)
            assert first["source"] == "tuned"
            assert first["record"]["winner_label"]
            before = _backend_invocations()
            # A brand-new client: nothing carries over but the store.
            second = harness.client().tune(binary, workload)
            assert second["source"] == "store"
            assert second["key"] == first["key"]
            assert second["record"] == first["record"]
            # The warm path never touched a measurement backend.
            assert _backend_invocations() == before

    def test_cold_tune_writes_the_record_once(
        self, tmp_path, binary, workload
    ):
        """The daemon writes the winner, and only once."""
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            assert harness.client().tune(binary, workload)["source"] == "tuned"
        assert store.stats().puts == 1
        assert len(store) == 1

    def test_cold_then_warm_tune_is_one_miss_one_hit_one_put(
        self, tmp_path, binary, workload
    ):
        """Only the daemon's own lookups reach its store: the tune
        worker makes no second lookup of its own."""
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            assert harness.client().tune(binary, workload)["source"] == "tuned"
            assert harness.client().tune(binary, workload)["source"] == "store"
            stats = harness.client().stats()["store"]
        assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)

    def test_warm_hit_survives_daemon_restart(
        self, tmp_path, binary, workload
    ):
        store_path = tmp_path / "s.jsonl"
        with DaemonHarness(TuningStore(store_path)) as harness:
            assert harness.client().tune(binary, workload)["source"] == "tuned"
        with DaemonHarness(TuningStore(store_path)) as harness:
            assert harness.client().tune(binary, workload)["source"] == "store"

    def test_query_and_invalidate(self, tmp_path, binary, workload):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client()
            key = client.tune(binary, workload)["key"]
            hit = client.query(key)
            assert hit["found"] is True
            assert hit["record"]["winner_label"]
            assert client.invalidate(key)["removed"] is True
            assert client.query(key)["found"] is False
            # The next tune re-measures and re-publishes.
            assert client.tune(binary, workload)["source"] == "tuned"


def _raw_tune(port: int, raw: bytes, workload: dict | None = None) -> dict:
    """One tune request carrying ``raw`` as its binary, bypassing the client."""
    payload = protocol.request(
        "tune",
        binary=base64.b64encode(raw).decode(),
        workload=workload or {},
    )
    with socket.create_connection(("127.0.0.1", port)) as sock:
        protocol.send_frame(sock, payload)
        return protocol.recv_frame(sock)


class TestDecodeOnDemand:
    """A daemon decodes a binary's modules only for a cold tune it admits."""

    def test_cold_tune_decodes_each_version_once_warm_hit_none(
        self, tmp_path, binary, workload, monkeypatch
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            decodes = count_decodes(monkeypatch)
            assert harness.client().tune(binary, workload)["source"] == "tuned"
            assert sorted(payload for _, payload in decodes) == sorted(
                payloads(binary)
            )
            decodes.clear()
            assert harness.client().tune(binary, workload)["source"] == "store"
            assert decodes == []

    def test_corrupt_version_is_a_bad_request_with_no_job_or_record(
        self, tmp_path, binary, workload, monkeypatch
    ):
        """Valid framing, one version that does not decode: the fail-safe
        version, which a converging tune might never measure."""
        admitted = []
        original_admit = TuningDaemon._admit

        def admit(self, key, *args):
            admitted.append(key)
            return original_admit(self, key, *args)

        monkeypatch.setattr(TuningDaemon, "_admit", admit)
        store = TuningStore(tmp_path / "s.jsonl")
        raw = corrupt_version(binary.to_bytes(), binary.failsafe[-1].label)
        before = _backend_invocations()
        with DaemonHarness(store) as harness:
            response = _raw_tune(
                harness.port,
                raw,
                {"grid_blocks": 64, "block_size": 256, "iterations": 10},
            )
            assert response["code"] == protocol.CODE_BAD_REQUEST
            assert "magic" in response["error"]
            assert harness.client().stats()["daemon"]["pending"] == 0
        assert admitted == []
        assert _backend_invocations() == before
        assert len(store) == 0 and store.stats().puts == 0


_INVALID_WORKLOADS = [
    ({"ilp": float("nan")}, "ilp must be finite and positive"),
    ({"ilp": 0}, "ilp must be finite and positive"),
    ({"ilp": float("inf")}, "ilp must be finite and positive"),
    ({"traits": {"divergence": -1.0}}, "divergence must be finite and positive"),
    ({"traits": {"divergence": float("nan")}}, "divergence must be finite and positive"),
    ({"traits": {"divergence": 0.0}}, "divergence must be finite and positive"),
    ({"iterations": 0}, "iterations must be at least 1"),
    ({"iterations": -3}, "iterations must be at least 1"),
    ({"max_events_per_warp": 0}, "max_events_per_warp must be at least 1"),
    ({"grid_blocks": 0}, "grid_blocks must be at least 1"),
    ({"grid_blocks": -2}, "grid_blocks must be at least 1"),
    ({"block_size": 0}, "block_size must be at least 1"),
    ({"work_profile": [0]}, "work_profile entries must be finite and positive"),
    ({"work_profile": [-1]}, "work_profile entries must be finite and positive"),
    (
        {"work_profile": [float("nan")]},
        "work_profile entries must be finite and positive",
    ),
    ({"work_profile": "25"}, "work_profile must be a list"),
]


@pytest.mark.parametrize(
    "bad, message",
    _INVALID_WORKLOADS,
    ids=[
        "ilp-nan", "ilp-zero", "ilp-inf",
        "divergence-negative", "divergence-nan", "divergence-zero",
        "iterations-zero", "iterations-negative", "max-events-zero",
        "grid-zero", "grid-negative", "block-size-zero",
        "work-zero", "work-negative", "work-nan", "work-not-a-list",
    ],
)
def test_workload_from_payload_rejects_invalid_simulator_parameters(
    bad, message
):
    with pytest.raises(ValueError, match=message):
        workload_from_payload({"grid_blocks": 4, "block_size": 64, **bad})


class TestDaemonRobustness:
    def test_survives_malformed_frames_and_requests(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            # Garbage body: a valid length prefix framing non-JSON.
            with socket.create_connection(("127.0.0.1", harness.port)) as sock:
                sock.sendall(struct.pack(">I", 7) + b"garbage")
                response = protocol.recv_frame(sock)
                assert response["ok"] is False
                assert response["code"] == protocol.CODE_BAD_REQUEST
            # Wrong protocol version.
            with socket.create_connection(("127.0.0.1", harness.port)) as sock:
                protocol.send_frame(sock, {"v": 99, "type": "ping"})
                assert protocol.recv_frame(sock)["code"] == protocol.CODE_BAD_REQUEST
            # Unknown request type.
            with socket.create_connection(("127.0.0.1", harness.port)) as sock:
                protocol.send_frame(sock, protocol.request("frobnicate"))
                assert protocol.recv_frame(sock)["code"] == protocol.CODE_BAD_REQUEST
            # Tune with an unusable binary payload.
            with socket.create_connection(("127.0.0.1", harness.port)) as sock:
                protocol.send_frame(
                    sock,
                    protocol.request(
                        "tune", binary="!!!not-base64!!!", workload={}
                    ),
                )
                assert protocol.recv_frame(sock)["code"] == protocol.CODE_BAD_REQUEST
            # Valid base64 of a truncated container (right magic, torn
            # body) is still the client's fault, not an internal error.
            torn = __import__("base64").b64encode(b"ORMV\x10").decode()
            with socket.create_connection(("127.0.0.1", harness.port)) as sock:
                protocol.send_frame(
                    sock, protocol.request("tune", binary=torn, workload={})
                )
                assert protocol.recv_frame(sock)["code"] == protocol.CODE_BAD_REQUEST
            # A whole container plus trailing garbage, and one whose last
            # version section is cut short: both are framing errors.
            data = binary.to_bytes()
            for raw in (data + b"trailing-garbage", data[:-1]):
                response = _raw_tune(harness.port, raw)
                assert response["code"] == protocol.CODE_BAD_REQUEST
                assert "malformed" in response["error"]
            # After all that abuse the daemon still serves real work.
            client = harness.client()
            assert client.ping()["ok"] is True
            assert client.tune(binary, workload)["source"] == "tuned"

    def test_invalid_simulator_parameters_are_bad_requests(
        self, tmp_path, binary, monkeypatch
    ):
        """A NaN or non-positive ILP, divergence or work entry (JSON
        carries NaN and Infinity), or a count below one, is refused
        before the daemon keys or tunes."""
        keyed = []
        original_key = daemon_module.tuning_key

        def tuning_key(*args, **kwargs):
            keyed.append(args)
            return original_key(*args, **kwargs)

        monkeypatch.setattr(daemon_module, "tuning_key", tuning_key)
        store = TuningStore(tmp_path / "s.jsonl")
        before = _backend_invocations()
        with DaemonHarness(store) as harness:
            for bad, message in _INVALID_WORKLOADS:
                response = _raw_tune(
                    harness.port,
                    binary.to_bytes(),
                    {"grid_blocks": 64, "block_size": 256, **bad},
                )
                assert response["code"] == protocol.CODE_BAD_REQUEST, bad
                assert message in response["error"]
        assert keyed == []
        assert _backend_invocations() == before
        assert len(store) == 0

    def test_unregistered_strategy_is_a_bad_request(
        self, tmp_path, binary, monkeypatch
    ):
        """A manifest naming a strategy nothing registers (the retired
        ``soft-limit`` among them) is refused at decode, before the
        daemon keys, admits or stores anything."""
        keyed, admitted = [], []
        original_key = daemon_module.tuning_key
        original_admit = TuningDaemon._admit

        def tuning_key(*args, **kwargs):
            keyed.append(args)
            return original_key(*args, **kwargs)

        def admit(self, *args, **kwargs):
            admitted.append(args)
            return original_admit(self, *args, **kwargs)

        monkeypatch.setattr(daemon_module, "tuning_key", tuning_key)
        monkeypatch.setattr(TuningDaemon, "_admit", admit)
        store = TuningStore(tmp_path / "s.jsonl")
        before = _backend_invocations()
        with DaemonHarness(store) as harness:
            for strategy in ("soft-limit", "bogus"):
                patched = MultiVersionBinary.from_bytes(binary.to_bytes())
                patched.versions[-1].strategy = strategy
                response = _raw_tune(
                    harness.port,
                    patched.to_bytes(),
                    {"grid_blocks": 64, "block_size": 256},
                )
                assert response["code"] == protocol.CODE_BAD_REQUEST
                assert (
                    f"unknown allocation strategy {strategy!r}"
                    in response["error"]
                )
        assert keyed == [] and admitted == []
        assert _backend_invocations() == before
        assert len(store) == 0

    def test_queue_full_rejection_carries_retry_after(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        config = DaemonConfig(max_pending=0)
        with DaemonHarness(store, config) as harness:
            client = harness.client(retries=0)
            payload = protocol.request(
                "tune",
                binary=__import__("base64").b64encode(binary.to_bytes()).decode(),
                workload={"grid_blocks": 64, "block_size": 256, "iterations": 10},
            )
            with socket.create_connection(("127.0.0.1", harness.port)) as sock:
                protocol.send_frame(sock, payload)
                response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert response["code"] == protocol.CODE_QUEUE_FULL
            assert response["retry_after"] == daemon_module.RETRY_AFTER > 0
            # The client retries then degrades to ServiceUnavailable.
            with pytest.raises(ServiceUnavailable):
                client.tune(binary, workload)
            # Control-plane requests are not admission-controlled.
            assert client.ping()["ok"] is True

    def test_timeout_answers_but_job_completes(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        config = DaemonConfig(request_timeout=0.01)
        with DaemonHarness(store, config, backend=SlowBackend(0.05)) as harness:
            client = harness.client(retries=0, timeout=10.0)
            with pytest.raises(ServiceRejected) as excinfo:
                client.tune(binary, workload)
            assert excinfo.value.code == protocol.CODE_TIMEOUT
            # The underlying job keeps running and publishes its winner;
            # a later request becomes a pure store hit.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    response = harness.client(timeout=10.0).tune(binary, workload)
                    if response["source"] == "store":
                        break
                except ServiceRejected as exc:
                    assert exc.code == protocol.CODE_TIMEOUT
                time.sleep(0.05)
            else:
                pytest.fail("stored winner never became visible")

    def test_single_flight_dedups_concurrent_tunes(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store, backend=SlowBackend(0.02)) as harness:
            before = _backend_invocations()
            results: list[dict] = []
            lock = threading.Lock()

            def tune() -> None:
                response = harness.client(timeout=60.0).tune(binary, workload)
                with lock:
                    results.append(response)

            threads = [threading.Thread(target=tune) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(results) == 3
            sources = sorted(r["source"] for r in results)
            assert sources[-1] == "tuned"
            assert set(sources) <= {"deduped", "store", "tuned"}
            assert len({r["record"]["winner_label"] for r in results}) == 1
            # Exactly one walk's worth of measurements ran: dedup joins
            # and store hits added nothing on top of the first tune.
            one_walk = _backend_invocations() - before
            assert one_walk > 0
            store.invalidate(results[0]["key"])
            again = _backend_invocations()
            harness.client(timeout=60.0).tune(binary, workload)
            # Measurement cache makes the re-tune nearly free, so the
            # three concurrent tunes cannot have measured more than once.
            assert _backend_invocations() == again

    def test_stats_reports_store_and_daemon_state(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client()
            client.tune(binary, workload)
            stats = client.stats()
            assert stats["store"]["entries"] == 1
            assert stats["daemon"]["pending"] == 0
            assert stats["daemon"]["arch"] == GTX680.name
            assert stats["daemon"]["backend"] == "timing"
            assert stats["daemon"]["jobs"] == 2  # the fixed tune workers


class TestShutdownDrain:
    def test_inflight_tune_survives_shutdown(
        self, tmp_path, binary, workload
    ):
        """A winner computed mid-shutdown is answered and published.

        Regression: shutdown used to tear the executors down under the
        in-flight ``_tune_sync`` jobs; now the daemon drains them
        (bounded by the request timeout) before closing.
        """
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(
            store, DaemonConfig(request_timeout=60.0),
            backend=SlowBackend(0.05),
        ) as harness:
            results: dict = {}

            def submit() -> None:
                try:
                    results["response"] = harness.client(timeout=60.0).tune(
                        binary, workload
                    )
                except Exception as exc:  # noqa: BLE001 — assert below
                    results["error"] = exc

            thread = threading.Thread(target=submit)
            thread.start()
            deadline = time.monotonic() + 10
            while not harness.daemon._inflight:
                assert time.monotonic() < deadline, "tune never admitted"
                time.sleep(0.005)
            # Shutdown while the tune is mid-measurement.
            assert harness.client().shutdown()["stopping"] is True
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert "error" not in results, results.get("error")
            assert results["response"]["source"] == "tuned"
            key = results["response"]["key"]
        # The drained job's winner reached the store before teardown.
        assert TuningStore(tmp_path / "s.jsonl").peek(key) is not None

    def test_new_tunes_rejected_while_draining(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(
            store, DaemonConfig(request_timeout=60.0),
            backend=SlowBackend(0.2),
        ) as harness:
            background = threading.Thread(
                target=lambda: harness.client(timeout=60.0).tune(
                    binary, workload
                )
            )
            background.start()
            deadline = time.monotonic() + 10
            while not harness.daemon._inflight:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with socket.create_connection(
                ("127.0.0.1", harness.port)
            ) as sock:
                protocol.send_frame(sock, protocol.request("shutdown"))
                assert protocol.recv_frame(sock)["stopping"] is True
            # While the in-flight job drains, a NEW tune (different
            # key: different grid) is refused rather than silently
            # queued behind a closing daemon.
            payload = protocol.request(
                "tune",
                binary=__import__("base64")
                .b64encode(binary.to_bytes())
                .decode(),
                workload={
                    "grid_blocks": 32,
                    "block_size": 256,
                    "iterations": 4,
                },
            )
            with socket.create_connection(
                ("127.0.0.1", harness.port)
            ) as sock:
                protocol.send_frame(sock, payload)
                response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert response["code"] == protocol.CODE_SHUTTING_DOWN
            background.join(timeout=60)


    def test_idle_keep_alive_handler_ends_before_the_loop_closes(
        self, tmp_path
    ):
        """Regression: the drain used to abandon an idle client's handler
        at its 2 s bound, so the handler's ``writer.close()`` ran after
        the loop had closed and raised ``Event loop is closed``."""
        store = TuningStore(tmp_path / "s.jsonl")
        with socket.socket() as idle:
            with DaemonHarness(store) as harness:
                idle.connect(("127.0.0.1", harness.port))
                protocol.send_frame(idle, protocol.request("ping"))
                assert protocol.recv_frame(idle)["ok"] is True
                handlers = set(harness.daemon._conn_tasks)
                assert len(handlers) == 1
                assert harness.client().shutdown()["stopping"] is True
            assert not harness._thread.is_alive()
            assert all(task.done() for task in handlers)
            assert not harness.daemon._conn_tasks
            idle.settimeout(5.0)
            assert idle.recv(1) == b""  # the daemon closed its end

    def test_handler_started_after_the_drain_ends_before_the_loop_closes(
        self, tmp_path
    ):
        """Regression: a connection accepted just before the server
        closed could start its handler after the drain's sweep; the loop
        then closed with the handler suspended in a store call, holding
        its telemetry hub, and its ``writer.close()`` ran at garbage
        collection and raised ``Event loop is closed``.  Every span the
        late handler opened must have ended while the loop ran."""
        store = TuningStore(tmp_path / "s.jsonl")
        stats_called = threading.Event()
        stats = store.stats

        def slow_stats():
            stats_called.set()
            time.sleep(0.1)
            return stats()

        store.stats = slow_stats
        late: list[asyncio.Task] = []
        client_end, daemon_end = socket.socketpair()
        with client_end:
            with DaemonHarness(store) as harness:
                daemon = harness.daemon
                drain = daemon._drain

                async def drain_then_start_a_handler() -> None:
                    await drain()
                    reader, writer = await asyncio.open_connection(
                        sock=daemon_end
                    )
                    late.append(
                        asyncio.get_running_loop().create_task(
                            daemon._handle_connection(reader, writer)
                        )
                    )
                    while not stats_called.is_set():
                        await asyncio.sleep(0.005)

                daemon._drain = drain_then_start_a_handler
                protocol.send_frame(client_end, protocol.request("stats"))
                assert harness.client().shutdown()["stopping"] is True
            assert not harness._thread.is_alive()
            counts = harness.engine.telemetry.counts
            assert counts[EventKind.SPAN_START] == counts[EventKind.SPAN_END]
            assert stats_called.is_set()
            assert late and late[0].done()
            assert not daemon._conn_tasks
            client_end.settimeout(5.0)
            assert client_end.recv(1) == b""  # the daemon closed its end


class TestKeptAliveConnections:
    """A client reuses its connection, and reconnects inside its one round
    trip when the daemon closed the connection while it sat idle."""

    def test_sequential_requests_share_one_connection(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            before = _connections()
            client = harness.client()
            for _ in range(5):
                assert client.ping()["ok"] is True
            assert client.stats()["daemon"]["pending"] == 0
            assert _connections() == before + 1

    def test_restarted_daemon_answers_the_next_request(
        self, tmp_path, monkeypatch
    ):
        round_trips: list[str] = []
        round_trip = TuningClient._round_trip

        def counted(self, payload):
            round_trips.append(payload["type"])
            return round_trip(self, payload)

        monkeypatch.setattr(TuningClient, "_round_trip", counted)
        logged: list[str] = []

        class Log:
            def warn(self, event, **fields):
                logged.append(event)

            error = warn

        monkeypatch.setattr(client_module, "_log", Log)
        store_path = tmp_path / "s.jsonl"
        with DaemonHarness(TuningStore(store_path)) as first:
            port = first.port
            client = TuningClient(port=port)
            assert client.ping()["ok"] is True
        with client, DaemonHarness(
            TuningStore(store_path), DaemonConfig(port=port)
        ):
            round_trips.clear()
            assert client.ping()["ok"] is True
        assert round_trips == ["ping"]
        assert logged == []

    def test_timeout_on_a_reused_connection_sends_once(self):
        """The peer answers the first frame and sits on the second: the
        request times out, and no frame is sent again."""
        frames: list[dict] = []
        release = threading.Event()
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def peer() -> None:
                conn, _ = listener.accept()
                with conn:
                    frames.append(protocol.recv_frame(conn))
                    protocol.send_frame(conn, protocol.ok())
                    frames.append(protocol.recv_frame(conn))
                    release.wait(10)

            thread = threading.Thread(target=peer)
            thread.start()
            with TuningClient(
                port=listener.getsockname()[1], timeout=0.2, retries=0
            ) as client:
                assert client.ping()["ok"] is True
                with pytest.raises(ServiceUnavailable, match="timed out"):
                    client.ping()
            release.set()
            thread.join(10)
            listener.settimeout(0.2)
            with pytest.raises(socket.timeout):
                listener.accept()  # no second connection either
        assert frames == [protocol.request("ping")] * 2


class TestMetricsCountExactlyOnce:
    @staticmethod
    def _requests_total() -> float:
        counter = get_registry().counter(
            "orion_daemon_requests_total",
            "Daemon requests by type and outcome.",
        )
        return sum(s["value"] for s in counter.snapshot_samples())

    @staticmethod
    def _outcome(type_: str, outcome: str) -> float:
        counter = get_registry().counter(
            "orion_daemon_requests_total",
            "Daemon requests by type and outcome.",
        )
        return counter.value(type=type_, outcome=outcome)

    def test_each_request_charged_exactly_once(self, tmp_path):
        """One frame, one count — across good, bad-envelope, and
        bad-frame paths (the ProtocolError double-count regression)."""
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            total_before = self._requests_total()
            ok_before = self._outcome("ping", "ok")
            bad_env_before = self._outcome("unknown", "bad-request")
            bad_frame_before = self._outcome("unknown", "bad-frame")

            # 1: a good request.
            harness.client().ping()
            # 2: a bad envelope (dispatched, counted as bad-request).
            with socket.create_connection(
                ("127.0.0.1", harness.port)
            ) as sock:
                protocol.send_frame(sock, {"v": 99, "type": "ping"})
                assert protocol.recv_frame(sock)["ok"] is False
            # 3: a framing failure (never dispatched: bad-frame).
            with socket.create_connection(
                ("127.0.0.1", harness.port)
            ) as sock:
                sock.sendall(struct.pack(">I", 12) + b"not json :-(")
                assert protocol.recv_frame(sock)["ok"] is False

            assert self._outcome("ping", "ok") == ok_before + 1
            assert (
                self._outcome("unknown", "bad-request")
                == bad_env_before + 1
            )
            assert (
                self._outcome("unknown", "bad-frame")
                == bad_frame_before + 1
            )
            # Exactly three charges for exactly three frames.
            assert self._requests_total() == total_before + 3


class TestClientFallback:
    def _dead_port(self) -> int:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_degrades_to_local_tuning(self, binary, workload):
        fallbacks = get_registry().counter(
            "orion_client_fallbacks_total",
            "Tune requests that degraded to in-process tuning.",
        )
        before = fallbacks.value(reason="ServiceUnavailable")
        with TuningClient(
            port=self._dead_port(), retries=0, backoff=0.0
        ) as client:
            response = tune_with_fallback(client, binary, workload, GTX680)
        assert response["ok"] is True
        assert response["source"] == "local"
        assert response["degraded_reason"]
        assert response["record"]["winner_label"]
        assert fallbacks.value(reason="ServiceUnavailable") == before + 1

    def test_no_fallback_raises(self, binary, workload):
        with TuningClient(
            port=self._dead_port(), retries=0, backoff=0.0
        ) as client, pytest.raises(ServiceUnavailable):
            client.tune(binary, workload)

    def test_rejected_undecodable_binary_is_not_tuned_locally(self, tmp_path):
        """The daemon answers ``bad-request``; the local fallback must not
        then build a record the daemon refused."""
        raw, workload = corrupt_hotspot()
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store, backend="analytical") as harness:
            client = harness.client(retries=0)
            with pytest.raises(ServiceRejected, match="magic"):
                client.tune(MultiVersionBinary.from_bytes(raw), workload)
            with pytest.raises(CodecError, match="magic"):
                tune_with_fallback(
                    client, MultiVersionBinary.from_bytes(raw), workload,
                    GTX680, backend="analytical",
                )
        assert len(store) == 0

    def test_unreachable_daemon_undecodable_binary_is_not_tuned_locally(self):
        raw, workload = corrupt_hotspot()
        with TuningClient(
            port=self._dead_port(), retries=0, backoff=0.0
        ) as client, pytest.raises(CodecError, match="magic"):
            tune_with_fallback(
                client, MultiVersionBinary.from_bytes(raw), workload,
                GTX680, backend="analytical",
            )
