"""Session-failure isolation: one bad workload must not sink the batch."""

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.obs.metrics import get_registry
from repro.obs.telemetry import EventKind, InMemorySink, TelemetryHub
from repro.runtime import Workload
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession
from repro.sim import LaunchConfig
from repro.sim.backend import get_backend
from tests.runtime.test_launcher import pressure_module


@pytest.fixture(scope="module")
def binary():
    return compile_binary(pressure_module(), "k", CompileOptions(arch=GTX680))


def workload(grid_blocks: int) -> Workload:
    return Workload(
        launch=LaunchConfig(grid_blocks=grid_blocks, block_size=256),
        iterations=10,
        max_events_per_warp=1500,
    )


class PoisonedBackend:
    """The timing backend, except one grid size explodes."""

    name = "timing"

    def __init__(self, poison_grid: int) -> None:
        self.poison_grid = poison_grid
        self._inner = get_backend("timing")

    def measure(self, request):
        if request.launch.grid_blocks == self.poison_grid:
            raise RuntimeError("poisoned measurement")
        return self._inner.measure(request)


def engine_with_sink(**kwargs):
    sink = InMemorySink()
    engine = ExecutionEngine(GTX680, telemetry=TelemetryHub(sink), **kwargs)
    return engine, sink


class TestRunManyIsolation:
    def test_failed_session_does_not_abort_the_batch(self, binary):
        engine, sink = engine_with_sink(backend=PoisonedBackend(13))
        sessions = [
            TuningSession(binary, workload(64), name="healthy-a"),
            TuningSession(binary, workload(13), name="poisoned"),
            TuningSession(binary, workload(32), name="healthy-b"),
        ]
        reports = engine.run_many(sessions)
        assert reports[0] is not None and reports[2] is not None
        assert reports[1] is None
        assert reports[0].total_cycles > 0

    def test_failure_lands_in_session_error_and_telemetry(self, binary):
        engine, sink = engine_with_sink(backend=PoisonedBackend(13))
        session = TuningSession(binary, workload(13), name="poisoned")
        engine.run_many([session])
        assert "poisoned measurement" in session.error
        assert "Traceback" in session.error
        failed = sink.of(EventKind.SESSION_FAILED)
        assert len(failed) == 1
        assert failed[0].session == "poisoned"
        assert "RuntimeError: poisoned measurement" in failed[0].data["error"]
        assert "Traceback" in failed[0].data["traceback"]
        finish = sink.of(EventKind.ENGINE_FINISH)
        assert finish[0].data["failed"] == 1

    def test_failures_counted_by_exception_type(self, binary):
        counter = get_registry().counter(
            "orion_session_failures_total",
            "Tuning sessions isolated after raising in the engine.",
        )
        before = counter.value(error="RuntimeError")
        engine, _ = engine_with_sink(backend=PoisonedBackend(13))
        engine.run_many([TuningSession(binary, workload(13))])
        assert counter.value(error="RuntimeError") == before + 1

    def test_direct_run_still_raises(self, binary):
        engine, _ = engine_with_sink(backend=PoisonedBackend(13))
        with pytest.raises(RuntimeError, match="poisoned measurement"):
            engine.run(TuningSession(binary, workload(13)))


class TestBenchSuiteSurfacing:
    def test_bench_suite_reports_failed_sessions_after_the_batch(
        self, monkeypatch
    ):
        from repro.harness import experiments

        real_run = ExecutionEngine._run

        def poisoned_run(self, session):
            if session.name == "srad":
                raise RuntimeError("srad went sideways")
            return real_run(self, session)

        monkeypatch.setattr(ExecutionEngine, "_run", poisoned_run)
        engine, _ = engine_with_sink()
        with pytest.raises(RuntimeError) as excinfo:
            experiments.bench_suite(
                GTX680, only=["bfs", "srad"], suite_engine=engine
            )
        message = str(excinfo.value)
        assert "benchmark session(s) failed: srad" in message
        assert "srad went sideways" in message
