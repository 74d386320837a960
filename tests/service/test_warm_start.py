"""Engine-level warm starts: the tuning store inside ExecutionEngine.

The daemon path (tests/service/test_daemon.py) proves a store hit needs
zero measurements; this file proves the *in-process* path — an engine
handed a store skips the candidate walk entirely (no TRIAL events,
``iterations_to_converge == 0``) and cold engines publish their winners
for the next process to reuse.
"""

import pytest

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler import CompileOptions, compile_binary
from repro.compiler.multiversion import MultiVersionBinary
from repro.harness.experiments import compiled
from repro.isa.encoding import CodecError
from repro.obs.metrics import get_registry
from repro.obs.telemetry import EventKind, InMemorySink, TelemetryHub
from repro.runtime import Workload
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession
from repro.service.store import TuningRecord, TuningStore
from repro.sim import LaunchConfig
from tests.helpers import corrupt_version
from tests.runtime.test_launcher import pressure_module


@pytest.fixture(scope="module")
def binary():
    return compile_binary(pressure_module(), "k", CompileOptions(arch=GTX680))


@pytest.fixture()
def workload():
    return Workload(
        launch=LaunchConfig(grid_blocks=64, block_size=256),
        iterations=10,
        max_events_per_warp=1500,
    )


def engine_with_sink(store):
    sink = InMemorySink()
    engine = ExecutionEngine(
        GTX680, telemetry=TelemetryHub(sink), tuning_store=store
    )
    return engine, sink


class TestColdPublish:
    def test_cold_run_publishes_winner(self, tmp_path, binary, workload):
        store = TuningStore(tmp_path / "s.jsonl")
        engine, sink = engine_with_sink(store)
        report = engine.run(TuningSession(binary, workload))
        assert len(store) == 1
        stored = store.peek(store.keys()[0])
        assert stored.winner_label == report.final_label
        assert stored.total_cycles == report.total_cycles
        assert stored.iterations_to_converge == report.iterations_to_converge
        assert sink.of(EventKind.WARM_START) == []

    def test_undecodable_version_is_never_published(self, tmp_path):
        """hotspot's "conservative warps=64" is never measured on the
        analytical backend, so only the publish step reads it."""
        spec = BENCHMARKS["hotspot"]
        label = "conservative warps=64"
        binary = compiled(spec, GTX680, strategy="local-spill")
        raw = corrupt_version(binary.to_bytes(), label)
        wl = spec.workload
        workload = Workload(
            launch=wl.launch(),
            iterations=wl.iterations,
            traits=wl.traits,
            ilp=wl.ilp,
            max_events_per_warp=wl.max_events_per_warp,
        )
        unstored = MultiVersionBinary.from_bytes(raw)
        report = ExecutionEngine(GTX680, backend="analytical").run(
            TuningSession(unstored, workload)
        )
        assert report.iterations_to_converge is not None
        [corrupt] = [v for v in unstored.versions if v.label == label]
        assert corrupt.outcome.module is None
        store = TuningStore(tmp_path / "s.jsonl")
        engine = ExecutionEngine(GTX680, backend="analytical", tuning_store=store)
        with pytest.raises(CodecError, match="magic"):
            engine.run(TuningSession(MultiVersionBinary.from_bytes(raw), workload))
        assert len(store) == 0

    def test_no_store_means_no_publishing(self, binary, workload):
        engine, _ = engine_with_sink(None)
        engine.run(TuningSession(binary, workload))
        assert engine.tuning_store is None


class TestWarmStart:
    def test_fresh_engine_skips_the_candidate_walk(
        self, tmp_path, binary, workload
    ):
        store_path = tmp_path / "s.jsonl"
        cold_engine, cold_sink = engine_with_sink(TuningStore(store_path))
        cold_report = cold_engine.run(TuningSession(binary, workload))
        assert cold_sink.count(EventKind.TRIAL) > 0

        # A brand-new engine and store instance: only the file carries over.
        warm_engine, warm_sink = engine_with_sink(TuningStore(store_path))
        session = TuningSession(binary, workload)
        warm_report = warm_engine.run(session)

        assert session.warm_started_from == cold_report.final_label
        assert warm_report.final_label == cold_report.final_label
        assert warm_report.iterations_to_converge == 0
        assert warm_sink.count(EventKind.TRIAL) == 0
        warm_events = warm_sink.of(EventKind.WARM_START)
        assert len(warm_events) == 1
        assert warm_events[0].data["label"] == cold_report.final_label

    def test_warm_run_does_not_republish(self, tmp_path, binary, workload):
        store_path = tmp_path / "s.jsonl"
        cold_engine, _ = engine_with_sink(TuningStore(store_path))
        cold_engine.run(TuningSession(binary, workload))

        warm_store = TuningStore(store_path)
        warm_engine, _ = engine_with_sink(warm_store)
        warm_engine.run(TuningSession(binary, workload))
        assert warm_store.stats().puts == 0

    def test_warm_start_counted(self, tmp_path, binary, workload):
        counter = get_registry().counter(
            "orion_warm_starts_total",
            "Tuning-store warm-start attempts by result.",
        )
        store = TuningStore(tmp_path / "s.jsonl")
        engine, _ = engine_with_sink(store)
        misses = counter.value(result="miss")
        engine.run(TuningSession(binary, workload))
        assert counter.value(result="miss") == misses + 1
        hits = counter.value(result="hit")
        engine.run(TuningSession(binary, workload))
        assert counter.value(result="hit") == hits + 1


class TestStaleRecords:
    def test_stale_winner_is_invalidated_and_replaced(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        engine, sink = engine_with_sink(store)
        key = engine._tuning_key(TuningSession(binary, workload))
        stale = TuningRecord(
            key=key,
            kernel="whatever",
            kernel_name="k",
            arch=GTX680.name,
            backend="timing",
            winner_label="a version this binary never had",
            winner_warps=1,
            occupancy=0.1,
            total_cycles=1,
        )
        store.put(stale)
        counter = get_registry().counter(
            "orion_warm_starts_total",
            "Tuning-store warm-start attempts by result.",
        )
        before = counter.value(result="stale")
        session = TuningSession(binary, workload)
        report = engine.run(session)
        assert counter.value(result="stale") == before + 1
        # The tuner walked candidates normally...
        assert session.warm_started_from is None
        assert sink.count(EventKind.TRIAL) > 0
        # ...and the fresh winner replaced the stale record.
        replaced = store.peek(key)
        assert replaced.winner_label == report.final_label


class TestEnvResolution:
    def test_engine_resolves_store_from_env(
        self, tmp_path, monkeypatch, binary, workload
    ):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("ORION_TUNING_STORE", str(path))
        engine = ExecutionEngine(GTX680)
        assert isinstance(engine.tuning_store, TuningStore)
        engine.run(TuningSession(binary, workload))
        assert len(TuningStore(path)) == 1

    def test_static_sessions_skip_the_store(self, tmp_path, workload):
        untunable = compile_binary(
            pressure_module(),
            "k",
            CompileOptions(arch=GTX680, can_tune=False),
        )
        store = TuningStore(tmp_path / "s.jsonl")
        engine, sink = engine_with_sink(store)
        engine.run(TuningSession(untunable, workload))
        assert len(store) == 0
        assert sink.of(EventKind.WARM_START) == []
