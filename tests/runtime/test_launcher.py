"""Tuning a workload end to end through the engine (tuner + simulator)."""

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.runtime import ExecutionEngine, TuningSession, Workload
from repro.sim import LaunchConfig
from tests.helpers import module_from_asm


def pressure_module(n=36, trips=6):
    lines = ["S2R %v0, %tid", "S2R %v1, %ctaid", "S2R %v2, %ntid",
             "IMAD %v3, %v1, %v2, %v0", "SHL %v4, %v3, 7", "MOV %v60, 0"]
    for i in range(n):
        lines.append(f"LD.global %v{5 + i}, [%v4+{4 * i}]")
    lines.append("BRA HEAD")
    head = f"HEAD:\n    ISET.lt %v99, %v60, {trips}\n    CBR %v99, BODY, DONE\nBODY:"
    body = ["    IMAD %v90, %v60, 16384, %v4", "    LD.global %v91, [%v90+65536]"]
    accum = "%v91"
    for i in range(1, n):
        body.append(f"    FFMA %v{100 + i}, %v{5 + i}, 1.01, {accum}")
        accum = f"%v{100 + i}"
    body += ["    IADD %v60, %v60, 1", "    BRA HEAD"]
    tail = f"DONE:\n    ST.global [%v4], {accum}\n    EXIT"
    text = (".module m\n.kernel k shared=0\nBB0:\n"
            + "\n".join(f"    {l}" for l in lines) + "\n" + head + "\n"
            + "\n".join(body) + "\n" + tail + "\n.end")
    return module_from_asm(text)


def tune(binary, workload):
    return ExecutionEngine(GTX680).run(TuningSession(binary, workload))


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


class TestExecution:
    def test_executes_all_iterations(self, binary, workload):
        report = tune(binary, workload)
        assert len(report.records) == 10
        assert report.total_cycles == sum(r.cycles for r in report.records)

    def test_converges_and_sticks(self, binary, workload):
        report = tune(binary, workload)
        assert report.iterations_to_converge is not None
        assert report.iterations_to_converge <= 5
        tail = report.records[report.iterations_to_converge:]
        assert all(r.label == report.final_label for r in tail)

    def test_final_never_the_worst_candidate(self, binary, workload):
        engine = ExecutionEngine(GTX680)
        report = engine.run(TuningSession(binary, workload))
        final_cycles = engine.measure_pinned(
            binary, report.final_version, workload
        )
        worst = max(
            engine.measure_pinned(binary, v, workload)
            for v in binary.versions + binary.failsafe
        )
        assert final_cycles <= worst

    def test_measure_version_scales_with_iterations(self, binary, workload):
        engine = ExecutionEngine(GTX680)
        ten = engine.measure_pinned(binary, binary.original, workload)
        twenty = engine.measure_pinned(
            binary,
            binary.original,
            Workload(
                launch=workload.launch,
                iterations=20,
                max_events_per_warp=workload.max_events_per_warp,
            ),
        )
        assert twenty == 2 * ten


class TestSplitting:
    def test_single_invocation_splits_for_tuning(self, binary):
        workload = Workload(
            launch=LaunchConfig(grid_blocks=64, block_size=256),
            iterations=1,
            max_events_per_warp=1500,
        )
        report = tune(binary, workload)
        assert report.was_split
        assert len(report.records) > 1

    def test_tiny_grid_does_not_split(self, binary):
        workload = Workload(
            launch=LaunchConfig(grid_blocks=2, block_size=256),
            iterations=1,
            max_events_per_warp=1500,
        )
        report = tune(binary, workload)
        assert not report.was_split
        assert len(report.records) == 1
