"""Measurement-pool tests: batching, single-flight, identity, metrics.

The pool must be invisible in every result: batched-concurrent
execution produces reports byte-identical to sequential unbatched
execution, and its only observable effects are fewer backend
invocations and the ``orion_engine_*`` metrics.
"""

import threading

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.obs.metrics import get_registry, reset_registry
from repro.obs.telemetry import InMemorySink, TelemetryHub
from repro.runtime import Workload
from repro.runtime.engine import (
    ExecutionEngine,
    MeasurementPool,
    _resolve_batch,
)
from repro.runtime.session import TuningSession
from repro.sim import LaunchConfig
from repro.sim.backend import MeasurementResult
from tests.runtime.test_launcher import pressure_module


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
        return MeasurementResult(backend=self.name, cycles=len(str(request)))


class TestResolveBatch:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("ORION_ENGINE_BATCH", raising=False)
        assert _resolve_batch(None) == 8

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ORION_ENGINE_BATCH", "3")
        assert _resolve_batch(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("ORION_ENGINE_BATCH", "3")
        assert _resolve_batch(16) == 16

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("ORION_ENGINE_BATCH", "many")
        assert _resolve_batch(None) == 8

    def test_disable(self):
        assert _resolve_batch(0) == 0
        assert _resolve_batch(-2) == 0


class TestMeasurementPool:
    def test_batch_leq_one_calls_backend_directly(self):
        backend = _CountingBackend()
        pool = MeasurementPool(backend, batch=1)
        r1 = pool.measure("key-a", "req-a")
        r2 = pool.measure("key-a", "req-a")
        # No dedup without pooling: two calls, two invocations.
        assert len(backend.calls) == 2
        assert r1.cycles == r2.cycles

    def test_sequential_measures_resolve(self):
        backend = _CountingBackend()
        pool = MeasurementPool(backend, batch=8)
        assert pool.measure("key-a", "req-a").cycles == len("req-a")
        assert pool.measure("key-b", "req-b").cycles == len("req-b")
        assert len(backend.calls) == 2

    def test_concurrent_same_key_single_flight(self):
        gate = threading.Event()
        backend = _CountingBackend(gate)
        pool = MeasurementPool(backend, batch=8)
        results = [None] * 4

        def worker(i):
            results[i] = pool.measure("key-a", "req-a")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(10)
        assert all(t.is_alive() is False for t in threads)
        # One backend call served every waiter.
        assert len(backend.calls) == 1
        assert all(r is not None and r.cycles == len("req-a") for r in results)

    def test_concurrent_distinct_keys_all_resolve(self):
        gate = threading.Event()
        backend = _CountingBackend(gate)
        pool = MeasurementPool(backend, batch=4)
        results = {}

        def worker(i):
            results[i] = pool.measure(f"key-{i}", f"req-{i}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(10)
        assert all(t.is_alive() is False for t in threads)
        assert len(backend.calls) == 8
        assert set(results) == set(range(8))

    def test_backend_error_reaches_every_waiter(self):
        class _Exploding:
            name = "exploding"

            def measure(self, request):
                raise RuntimeError("boom")

        pool = MeasurementPool(_Exploding(), batch=8)
        with pytest.raises(RuntimeError, match="boom"):
            pool.measure("key-a", "req-a")
        # The failed flight is retired, not wedged: retry re-invokes.
        with pytest.raises(RuntimeError, match="boom"):
            pool.measure("key-a", "req-a")

    def test_metrics_recorded(self):
        reset_registry()
        backend = _CountingBackend()
        pool = MeasurementPool(backend, batch=8)
        pool.measure("key-a", "req-a")
        pool.measure("key-b", "req-b")
        registry = get_registry()
        counter = registry.counter("orion_engine_measurements_total")
        assert counter.value(result="queued") == 2
        hist = registry.histogram(
            "orion_engine_batch_size",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        )
        samples = hist.snapshot_samples()
        assert samples and samples[0]["count"] >= 1
        reset_registry()


class TestBatchedEngineIdentity:
    def test_batched_concurrent_identical_to_unbatched_sequential(
        self, binary, workload
    ):
        plain = ExecutionEngine(
            GTX680, telemetry=TelemetryHub(InMemorySink()), batch=0
        )
        sequential = plain.run_many(
            [
                TuningSession(binary, workload, name=f"s{i}")
                for i in range(3)
            ],
            jobs=1,
        )
        pooled = ExecutionEngine(
            GTX680, telemetry=TelemetryHub(InMemorySink()), batch=8
        )
        batched = pooled.run_many(
            [
                TuningSession(binary, workload, name=f"s{i}")
                for i in range(3)
            ],
            jobs=4,
        )
        assert len(sequential) == len(batched) == 3
        for a, b in zip(sequential, batched):
            assert a is not None and b is not None
            assert reports_equal(a, b)

    def test_env_knob_reaches_pool(self, monkeypatch):
        monkeypatch.setenv("ORION_ENGINE_BATCH", "5")
        engine = ExecutionEngine(GTX680, telemetry=TelemetryHub())
        assert engine.pool.batch == 5
