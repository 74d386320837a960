"""Ablations of Orion's own design choices (beyond the paper's Fig. 5).

DESIGN.md calls out three tunable design decisions; each gets an
ablation here:

* **dynamic vs static selection** — how much the Fig. 9 runtime buys
  over the compiler's static pick alone;
* **tolerance band** — the 2% plateau band drives the "lowest occupancy
  at equal performance" resource savings; with a zero band the
  downward search stalls at the first noise bump;
* **fail-safe versions** — without the opposite-direction candidate, a
  mispredicted direction costs real performance.
"""

import pytest

from repro.arch import GTX680, TESLA_C2075
from repro.bench.kernels import BENCHMARKS
from repro.compiler import CompileOptions, compile_binary
from repro.runtime import DynamicTuner, ExecutionEngine, TuningSession
from repro.harness.experiments import _workload, compiled


@pytest.fixture(scope="module")
def imaged_binary():
    return compiled(BENCHMARKS["imageDenoising"], GTX680)


@pytest.fixture(scope="module")
def gaussian_binary():
    return compiled(BENCHMARKS["gaussian"], TESLA_C2075)


def _run(arch, binary, spec, tolerance=0.02):
    session = TuningSession(binary, _workload(spec), slowdown_tolerance=tolerance)
    return ExecutionEngine(arch).run(session)


def test_dynamic_beats_or_matches_static(benchmark, imaged_binary, save_artifact):
    """Dynamic feedback never loses to the static heuristic pick."""
    spec = BENCHMARKS["imageDenoising"]

    def ablation():
        dynamic = _run(GTX680, imaged_binary, spec)
        module = spec.build()
        static = compile_binary(
            module,
            module.kernel().name,
            CompileOptions(arch=GTX680, can_tune=False),
        )
        static_report = _run(GTX680, static, spec)
        return dynamic, static_report

    dynamic, static_report = benchmark.pedantic(ablation, rounds=1, iterations=1)
    ratio = static_report.total_cycles / dynamic.total_cycles
    save_artifact(
        "ablation_dynamic_vs_static",
        "Ablation: dynamic vs static selection (imageDenoising, GTX680)\n"
        f"dynamic final : {dynamic.final_label} ({dynamic.total_cycles} cycles)\n"
        f"static final  : {static_report.final_label} "
        f"({static_report.total_cycles} cycles)\n"
        f"static/dynamic: {ratio:.4f}",
    )
    assert ratio >= 0.95  # dynamic may pay small trial overhead
    assert dynamic.iterations_to_converge is not None


def test_zero_tolerance_saves_fewer_resources(benchmark, gaussian_binary, save_artifact):
    """The tolerance band is what lets the downward search keep walking."""
    spec = BENCHMARKS["gaussian"]

    def ablation():
        with_band = _run(TESLA_C2075, gaussian_binary, spec, tolerance=0.02)
        without = _run(TESLA_C2075, gaussian_binary, spec, tolerance=0.0)
        return with_band, without

    with_band, without = benchmark.pedantic(ablation, rounds=1, iterations=1)
    save_artifact(
        "ablation_tolerance_band",
        "Ablation: tuner tolerance band (gaussian, Tesla C2075)\n"
        f"2% band final  : {with_band.final_label} "
        f"({with_band.final_version.achieved_warps} warps)\n"
        f"zero band final: {without.final_label} "
        f"({without.final_version.achieved_warps} warps)",
    )
    assert (
        with_band.final_version.achieved_warps
        <= without.final_version.achieved_warps
    )


def test_failsafe_rescues_misprediction(benchmark, save_artifact):
    """Strip the fail-safe candidates: a wrong direction gets locked in."""
    spec = BENCHMARKS["imageDenoising"]

    def ablation():
        binary = compiled(spec, GTX680)
        full = DynamicTuner(binary)
        runtimes = {}
        # Synthetic profile where every upward candidate loses badly and
        # the fail-safe (lower occupancy) wins: a forced misprediction.
        for v in binary.versions:
            runtimes[v.label] = 100.0 if v.label == "original" else 150.0
        for v in binary.failsafe:
            runtimes[v.label] = 80.0
        for _ in range(12):
            version = full.next_version()
            full.report(runtimes[version.label])
            if full.converged:
                break
        import dataclasses

        stripped_binary = dataclasses.replace(binary, failsafe=[])
        stripped = DynamicTuner(stripped_binary)
        for _ in range(12):
            version = stripped.next_version()
            stripped.report(runtimes[version.label])
            if stripped.converged:
                break
        return binary, full, stripped, runtimes

    binary, full, stripped, runtimes = benchmark.pedantic(
        ablation, rounds=1, iterations=1
    )
    save_artifact(
        "ablation_failsafe",
        "Ablation: fail-safe candidates under forced misprediction\n"
        f"with fail-safe   : {full.final_version.label} "
        f"(runtime {runtimes[full.final_version.label]})\n"
        f"without fail-safe: {stripped.final_version.label} "
        f"(runtime {runtimes[stripped.final_version.label]})",
    )
    if binary.failsafe:
        assert (
            runtimes[full.final_version.label]
            <= runtimes[stripped.final_version.label]
        )
        assert full.final_version.label == binary.failsafe[0].label
