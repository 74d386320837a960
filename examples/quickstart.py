"""Quickstart: compile a GPU kernel with Orion and let the runtime tune it.

Walks the whole paper pipeline on a small register-hungry kernel:

1. write a kernel in ORAS assembly;
2. compile it — Orion picks a tuning direction from max-live and emits
   a handful of candidate binaries at different occupancy levels;
3. execute a kernel loop through the Orion runtime's execution engine,
   which trials the candidates and locks in the best one within a few
   iterations;
4. compare against the occupancy-oblivious nvcc-style baseline.

Run:  python examples/quickstart.py
"""

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary, nvcc_baseline
from repro.isa.assembly import parse_module
from repro.runtime import ExecutionEngine, TuningSession, Workload
from repro.sim import LaunchConfig


def build_kernel_source(live_values: int = 48, loop_iters: int = 8) -> str:
    """A kernel holding ``live_values`` registers live through a loop."""
    lines = [
        "S2R %v0, %tid",
        "S2R %v1, %ctaid",
        "S2R %v2, %ntid",
        "IMAD %v3, %v1, %v2, %v0",
        "SHL %v4, %v3, 7",
        "MOV %v60, 0",
    ]
    for i in range(live_values):
        lines.append(f"LD.global %v{5 + i}, [%v4+{4 * i}]")
    lines.append("BRA HEAD")
    body = [
        "HEAD:",
        f"    ISET.lt %v99, %v60, {loop_iters}",
        "    CBR %v99, BODY, DONE",
        "BODY:",
        # Streaming loads each iteration: latency the GPU can only hide
        # with enough resident warps — the upward-tuning motivation.
        "    IMAD %v90, %v60, 16384, %v4",
        "    LD.global %v91, [%v90+65536]",
        "    LD.global %v92, [%v90+65664]",
        "    LD.global %v93, [%v90+65792]",
    ]
    accum = "%v91"
    body.append(f"    FFMA %v100, %v92, 1.01, {accum}")
    body.append("    FFMA %v101, %v93, 1.01, %v100")
    accum = "%v101"
    for i in range(1, live_values):
        body.append(f"    FFMA %v{101 + i}, %v{5 + i}, 1.01, {accum}")
        accum = f"%v{101 + i}"
    body += [
        "    IADD %v60, %v60, 1",
        "    BRA HEAD",
        "DONE:",
        f"    ST.global [%v4], {accum}",
        "    EXIT",
    ]
    header = ".module quickstart\n.kernel main shared=0\nBB0:\n"
    return header + "\n".join(f"    {l}" for l in lines) + "\n" + "\n".join(body) + "\n.end"


def main() -> None:
    module = parse_module(build_kernel_source())
    module.validate()

    print("== compiling with Orion ==")
    binary = compile_binary(module, "main", CompileOptions(arch=GTX680))
    print(f"tuning direction: {binary.direction}")
    for version in binary.versions + binary.failsafe:
        print(
            f"  {version.label:28s} occupancy={version.occupancy:5.3f} "
            f"regs/thread={version.regs_per_thread:2d} "
            f"smem/block={version.smem_per_block}B "
            f"spilled={version.outcome.spilled_variables}"
        )

    print("\n== running 12 kernel-loop iterations under the Orion runtime ==")
    workload = Workload(
        launch=LaunchConfig(grid_blocks=96, block_size=256),
        iterations=12,
        max_events_per_warp=2500,
    )
    engine = ExecutionEngine(GTX680)
    report = engine.run(TuningSession(binary, workload))
    for record in report.records[:6]:
        print(f"  iter {record.iteration}: {record.label:28s} {record.cycles} cycles")
    print(f"  ... converged after {report.iterations_to_converge} iterations")
    print(f"  final version: {report.final_label}")

    print("\n== versus the nvcc-style baseline ==")
    nvcc = nvcc_baseline(module, "main", GTX680)
    nvcc_total = engine.measure_pinned(binary, nvcc, workload)
    speedup = nvcc_total / report.total_cycles
    print(f"  nvcc:  {nvcc_total} cycles at occupancy {nvcc.occupancy:.3f}")
    print(f"  Orion: {report.total_cycles} cycles (tuning overhead included)")
    print(f"  speedup: {speedup:.3f}x")


if __name__ == "__main__":
    main()
