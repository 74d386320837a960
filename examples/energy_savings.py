"""Downward tuning for resource and energy savings (paper Section 4.2).

Low-pressure kernels already run at maximum occupancy, so Orion tunes
them *down*: unused shared-memory padding lowers the resident-warp
count without recompiling.  When the runtime is flat (srad, gaussian)
that halves register-file pressure — and with it, power — for free.

Run:  python examples/energy_savings.py
"""

from repro.arch import TESLA_C2075, calculate_occupancy
from repro.bench.kernels import BENCHMARKS
from repro.compiler import CompileOptions, compile_binary
from repro.harness import occupancy_sweep
from repro.runtime import ExecutionEngine, TuningSession, Workload
from repro.sim.energy import gpu_power


def main() -> None:
    arch = TESLA_C2075
    for name in ("gaussian", "srad", "streamcluster"):
        spec = BENCHMARKS[name]
        module = spec.build()
        binary = compile_binary(
            module,
            module.kernel().name,
            CompileOptions(arch=arch, block_size=spec.workload.block_size),
        )
        print(f"== {name} (direction: {binary.direction}) ==")

        engine = ExecutionEngine(arch)
        workload = Workload(
            launch=spec.workload.launch(),
            iterations=spec.workload.iterations,
            traits=spec.workload.traits,
            ilp=spec.workload.ilp,
            max_events_per_warp=spec.workload.max_events_per_warp,
        )
        report = engine.run(TuningSession(binary, workload))
        original = binary.original
        final = report.final_version

        def occ(version):
            return calculate_occupancy(
                arch,
                spec.workload.block_size,
                version.regs_per_thread,
                version.smem_per_block,
            )

        occ_orig, occ_final = occ(original), occ(final)
        power_orig, power_final = (
            gpu_power(arch, occ_orig),
            gpu_power(arch, occ_final),
        )
        cycles_orig = engine.measure_pinned(binary, original, workload)
        cycles_final = engine.measure_pinned(binary, final, workload)
        print(f"  original: occupancy {occ_orig.occupancy:.3f}, "
              f"{occ_orig.allocated_registers} regs/SM")
        print(f"  final:    occupancy {occ_final.occupancy:.3f}, "
              f"{occ_final.allocated_registers} regs/SM ({final.label})")
        reg_saving = 1 - occ_final.allocated_registers / occ_orig.allocated_registers
        runtime_delta = cycles_final / cycles_orig - 1
        energy_saving = 1 - (power_final * cycles_final) / (power_orig * cycles_orig)
        print(f"  register saving: {reg_saving:6.1%}")
        print(f"  runtime change : {runtime_delta:+6.1%}")
        print(f"  energy saving  : {energy_saving:6.1%}")

        sweep = occupancy_sweep(name, arch)
        pairs = sweep.normalized(to="max")
        curve = "  ".join(f"{o:.2f}:{r:.2f}" for o, r in pairs)
        print(f"  occupancy curve (runtime vs full occupancy): {curve}\n")


if __name__ == "__main__":
    main()
