"""Single-flight measurement: threads sharing one engine.

The tuning daemon's tune workers share one :class:`ExecutionEngine`.
A measurement that several threads miss at once must run the backend
once and hand every waiter its result or its error; reports must equal
a sequential run's.  The only observable effects are fewer backend
invocations and ``orion_engine_measurements_total{result="joined"}``.
"""

import threading
import time

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.obs.metrics import get_registry
from repro.obs.telemetry import EventKind, InMemorySink, TelemetryHub
from repro.runtime import Workload
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession
from repro.sim import LaunchConfig
from repro.sim.backend import MeasurementResult
from tests.helpers import run_on_threads
from tests.runtime.test_launcher import pressure_module

THREADS = 4


@pytest.fixture(scope="module")
def binary():
    return compile_binary(pressure_module(), "k", CompileOptions(arch=GTX680))


@pytest.fixture(scope="module")
def workload():
    return Workload(
        launch=LaunchConfig(grid_blocks=64, block_size=256),
        iterations=10,
        max_events_per_warp=1500,
    )


def reports_equal(a, b):
    return (
        a.total_cycles == b.total_cycles
        and a.final_label == b.final_label
        and a.iterations_to_converge == b.iterations_to_converge
        and a.was_split == b.was_split
        and [(r.label, r.cycles) for r in a.records]
        == [(r.label, r.cycles) for r in b.records]
    )


class _CountingBackend:
    """A backend that records every invocation (and can block)."""

    name = "counting"

    def __init__(self, gate: threading.Event | None = None):
        self.calls = []
        self.lock = threading.Lock()
        self.gate = gate

    def measure(self, request):
        if self.gate is not None:
            self.gate.wait(5)
        with self.lock:
            self.calls.append(request)
        return MeasurementResult(
            backend=self.name, cycles=request.launch.grid_blocks
        )


class _Exploding(_CountingBackend):
    def measure(self, request):
        super().measure(request)
        raise RuntimeError("boom")


def engine_with_sink(backend):
    sink = InMemorySink()
    engine = ExecutionEngine(GTX680, backend, telemetry=TelemetryHub(sink))
    return engine, sink


def launch(grid_blocks: int) -> LaunchConfig:
    return LaunchConfig(grid_blocks=grid_blocks, block_size=256)


def engine_measurements() -> dict:
    """``orion_engine_measurements_total`` by its ``result`` label."""
    counter = get_registry().counter("orion_engine_measurements_total")
    return {
        s["labels"]["result"]: s["value"] for s in counter.snapshot_samples()
    }


def joined() -> float:
    return engine_measurements().get("joined", 0)


def measure_on_threads(engine, sink, version, launches, gate):
    """``engine.measure`` one launch per thread; ``gate`` opens once
    every thread has looked the cache up, so all of them miss together.

    Returns each thread's result or the exception it raised.
    """
    outcomes: list = [None] * len(launches)

    def work(i: int) -> None:
        try:
            outcomes[i] = engine.measure(version, launches[i])
        except RuntimeError as exc:
            outcomes[i] = exc

    threads = [
        threading.Thread(target=work, args=(i,), daemon=True)
        for i in range(len(launches))
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10
    while (
        sink.count(EventKind.CACHE_MISS) < len(launches)
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    gate.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    return outcomes


class TestSingleFlight:
    def test_sequential_measures_resolve(self, binary):
        backend = _CountingBackend()
        engine, sink = engine_with_sink(backend)
        assert engine.measure(binary.original, launch(8)).cycles == 8
        assert engine.measure(binary.original, launch(16)).cycles == 16
        assert engine.measure(binary.original, launch(8)).cycles == 8
        assert len(backend.calls) == 2
        assert sink.count(EventKind.CACHE_HIT) == 1

    def test_concurrent_same_key_single_flight(self, binary):
        """The first thread to miss runs the backend; the others join
        it.  Every thread counts a cache miss, only the backend call a
        ``backend_invoke``."""
        gate = threading.Event()
        backend = _CountingBackend(gate)
        engine, sink = engine_with_sink(backend)
        before = joined()
        outcomes = measure_on_threads(
            engine, sink, binary.original, [launch(64)] * THREADS, gate
        )
        assert [r.cycles for r in outcomes] == [64] * THREADS
        assert len(backend.calls) == 1
        assert sink.count(EventKind.BACKEND_INVOKE) == 1
        assert sink.count(EventKind.CACHE_MISS) == THREADS
        assert joined() - before == THREADS - 1
        # The result was stored as the flight retired: the next caller hits.
        assert engine.measure(binary.original, launch(64)).cycles == 64
        assert len(backend.calls) == 1

    def test_concurrent_distinct_keys_all_resolve(self, binary):
        gate = threading.Event()
        backend = _CountingBackend(gate)
        engine, sink = engine_with_sink(backend)
        before = joined()
        grids = [8 * (i + 1) for i in range(2 * THREADS)]
        outcomes = measure_on_threads(
            engine, sink, binary.original, [launch(g) for g in grids], gate
        )
        assert [r.cycles for r in outcomes] == grids
        assert len(backend.calls) == len(grids)
        assert sink.count(EventKind.BACKEND_INVOKE) == len(grids)
        assert joined() == before

    def test_backend_error_reaches_every_waiter(self, binary):
        gate = threading.Event()
        backend = _Exploding(gate)
        engine, sink = engine_with_sink(backend)
        outcomes = measure_on_threads(
            engine, sink, binary.original, [launch(64)] * THREADS, gate
        )
        assert all(
            isinstance(o, RuntimeError) and str(o) == "boom" for o in outcomes
        )
        assert len(backend.calls) == 1
        # The failed flight is retired, not wedged, and nothing was
        # cached: a retry runs the backend again.
        with pytest.raises(RuntimeError, match="boom"):
            engine.measure(binary.original, launch(64))
        assert len(backend.calls) == 2

    def test_metrics_recorded(self, binary):
        """Only a join is counted: a caller that runs the backend is
        already counted by ``orion_backend_invocations_total``."""
        before = engine_measurements()
        engine, _ = engine_with_sink(_CountingBackend())
        engine.measure(binary.original, launch(8))
        engine.measure(binary.original, launch(16))
        engine.measure(binary.original, launch(8))
        after = engine_measurements()
        assert after == before
        assert set(after) <= {"joined"}


class TestBatchedEngineIdentity:
    def test_batched_concurrent_identical_to_unbatched_sequential(
        self, binary, workload
    ):
        """Identical sessions on threads of one engine share every
        measurement, by a cache hit or a join, and report what the same
        sessions report run in turn; each distinct measurement runs the
        backend once either way."""

        def run(threads):
            engine, sink = engine_with_sink("timing")
            sessions = [
                TuningSession(binary, workload, name=f"s{i}")
                for i in range(3)
            ]
            reports = run_on_threads(engine, sessions, threads)
            return reports, sink.count(EventKind.BACKEND_INVOKE), engine

        sequential, sequential_invokes, _ = run(1)
        concurrent, concurrent_invokes, engine = run(3)
        assert len(sequential) == len(concurrent) == 3
        for a, b in zip(sequential, concurrent):
            assert a is not None and b is not None
            assert reports_equal(a, b)
        assert concurrent_invokes == sequential_invokes == len(engine.cache)
