"""Execution engine tests: sessions, caching, telemetry, backends."""

import json

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.obs.telemetry import EventKind, InMemorySink, TelemetryHub
from repro.perf.measure_cache import MeasurementCache
from repro.runtime import Workload
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession
from repro.sim import LaunchConfig
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


def session_for(binary, workload, name="k"):
    return TuningSession(binary, workload, name=name)


def engine_with_sink(**kwargs):
    sink = InMemorySink()
    engine = ExecutionEngine(GTX680, telemetry=TelemetryHub(sink), **kwargs)
    return engine, sink


class TestEngineRun:
    def test_session_records_and_report(self, binary, workload):
        engine, _ = engine_with_sink()
        session = session_for(binary, workload)
        report = engine.run(session)
        assert session.finished
        assert session.report is report
        assert len(report.records) == workload.iterations
        assert report.total_cycles == sum(r.cycles for r in report.records)

    def test_emits_session_lifecycle_events(self, binary, workload):
        engine, sink = engine_with_sink()
        engine.run(session_for(binary, workload, name="pressure"))
        assert sink.count(EventKind.SESSION_START) == 1
        assert sink.count(EventKind.ITERATION) == workload.iterations
        assert sink.count(EventKind.CONVERGED) == 1
        assert sink.count(EventKind.SESSION_FINALIZED) == 1
        # Trials stop once converged, so there are fewer than iterations.
        assert 0 < sink.count(EventKind.TRIAL) < workload.iterations
        assert all(
            e.session == "pressure"
            for e in sink.events
            if e.kind is not EventKind.ENGINE_START
        )

    def test_converged_tail_hits_cache(self, binary, workload):
        """Post-convergence iterations re-run one version: pure cache hits."""
        engine, sink = engine_with_sink()
        engine.run(session_for(binary, workload))
        assert sink.count(EventKind.CACHE_HIT) > 0
        assert (
            sink.count(EventKind.BACKEND_INVOKE)
            == sink.count(EventKind.CACHE_MISS)
            < workload.iterations
        )


class TestRunMany:
    def test_cross_session_cache_hits(self, binary, workload):
        """Identical sessions collapse to one backend invocation each."""
        engine, sink = engine_with_sink()
        engine.run_many(
            [session_for(binary, workload, name=f"s{i}") for i in range(2)]
        )
        invokes = sink.count(EventKind.BACKEND_INVOKE)
        hits = sink.count(EventKind.CACHE_HIT)
        # The second session measures nothing the first didn't already.
        assert invokes + hits == 2 * workload.iterations
        assert hits >= workload.iterations
        sessions_hitting = {e.session for e in sink.of(EventKind.CACHE_HIT)}
        assert "s1" in sessions_hitting

    def test_engine_start_finish_events(self, binary, workload):
        engine, sink = engine_with_sink()
        engine.run_many([session_for(binary, workload)])
        (start,) = sink.of(EventKind.ENGINE_START)
        (finish,) = sink.of(EventKind.ENGINE_FINISH)
        assert start.data["sessions"] == finish.data["sessions"] == 1
        assert finish.data["cache_misses"] == engine.cache.stats.misses

    def test_empty_session_list(self):
        engine, _ = engine_with_sink()
        assert engine.run_many([]) == []


class TestMeasurePinned:
    def test_honours_work_profile(self, binary):
        """The old measure_version bug: work_profile was ignored."""
        engine, _ = engine_with_sink()
        base = Workload(
            launch=LaunchConfig(grid_blocks=64, block_size=256),
            iterations=2,
            max_events_per_warp=1500,
        )
        shrunk = Workload(
            launch=base.launch,
            iterations=2,
            work_profile=[1.0, 0.5],
            max_events_per_warp=1500,
        )
        full = engine.measure_pinned(binary, binary.original, base)
        partial = engine.measure_pinned(binary, binary.original, shrunk)
        assert partial < full

    def test_matches_scaled_measurements(self, binary):
        engine, _ = engine_with_sink()
        workload = Workload(
            launch=LaunchConfig(grid_blocks=64, block_size=256),
            iterations=2,
            work_profile=[1.0, 0.5],
            max_events_per_warp=1500,
        )
        pinned = engine.measure_pinned(binary, binary.original, workload)
        expected = sum(
            engine.measure(
                binary.original,
                LaunchConfig(grid_blocks=blocks, block_size=256),
                workload,
            ).cycles
            for blocks in (64, 32)
        )
        assert pinned == expected


class TestBackendsThroughEngine:
    def test_analytical_backend_runs_sessions(self, binary, workload):
        engine, _ = engine_with_sink(backend="analytical")
        report = engine.run(session_for(binary, workload))
        assert report.final_version is not None
        assert len(report.records) == workload.iterations

    def test_functional_backend_prefers_lowest_occupancy(self, binary, workload):
        """Identical 'runtimes' per version: tuner takes the low end."""
        engine, _ = engine_with_sink(backend="functional")
        report = engine.run(session_for(binary, workload))
        assert report.final_version is not None

    def test_backends_share_nothing_in_cache(self, binary, workload):
        cache = MeasurementCache()
        timing = ExecutionEngine(GTX680, measurement_cache=cache)
        analytical = ExecutionEngine(
            GTX680, backend="analytical", measurement_cache=cache
        )
        launch = workload.launch
        a = timing.measure(binary.original, launch, workload)
        b = analytical.measure(binary.original, launch, workload)
        assert not b.cached  # different backend → different key
        assert a.backend != b.backend


class TestTraceFile:
    def test_writes_parseable_jsonl(self, binary, workload, tmp_path):
        trace = tmp_path / "trace.jsonl"
        engine = ExecutionEngine(GTX680, trace_file=trace)
        engine.run_many([session_for(binary, workload)])
        engine.telemetry.close()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        # The engine span brackets the whole run.
        assert records[0]["kind"] == "span_start"
        assert records[0]["data"]["name"] == "engine"
        assert records[-1]["kind"] == "span_end"
        assert records[-1]["data"]["name"] == "engine"
        assert records[1]["kind"] == "engine_start"
        assert records[-2]["kind"] == "engine_finish"
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        kinds = {r["kind"] for r in records}
        assert {"session_start", "trial", "iteration", "converged"} <= kinds

    def test_env_var_enables_trace(self, binary, workload, tmp_path, monkeypatch):
        trace = tmp_path / "env_trace.jsonl"
        monkeypatch.setenv("ORION_TRACE_FILE", str(trace))
        engine = ExecutionEngine(GTX680)
        engine.run(session_for(binary, workload))
        engine.telemetry.close()
        assert trace.exists()

