"""One entry point per paper table and figure (the experiment index).

Every public function regenerates one artifact of the paper's
evaluation section and returns structured rows plus a ``render()``-able
string, so the benchmark harness prints the same series the paper
plots.  Absolute cycle counts belong to our simulator, not the authors'
GPUs; the claims under reproduction are the *shapes*: who wins, by
roughly what factor, and where the crossovers sit.

| id      | artifact                                            |
|---------|-----------------------------------------------------|
| fig1    | imageDenoising runtime vs occupancy (GTX680 bell)   |
| fig2    | matrixMul runtime vs occupancy (plateau)            |
| fig5    | inter-procedure allocation ablations                |
| fig10   | srad runtime vs occupancy (C2075 flat top)          |
| fig11   | Orion-Min / nvcc / Orion-Max / Orion-Select speedup |
| fig12   | downward tuning: registers & runtime                |
| fig13   | energy: selected vs ideal (C2075)                   |
| fig14   | gaussian / streamcluster curves (C2075)             |
| fig15   | backprop / bfs curves (GTX680)                      |
| table2  | benchmark info: Reg / Func / Smem                   |
| table3  | small-cache vs large-cache speedup                  |
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.occupancy import calculate_occupancy, occupancy_levels
from repro.arch.specs import GTX680, TESLA_C2075, CacheConfig, GpuArchitecture
from repro.bench.kernels import (
    BENCHMARKS,
    BenchmarkSpec,
    downward_benchmarks,
    figure5_benchmarks,
    table2_benchmarks,
    upward_benchmarks,
)
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.pipeline import CompileOptions, compile_binary, nvcc_baseline
from repro.compiler.realize import KernelVersion, RealizeError, realize_occupancy
from repro.harness.reporting import format_series, format_table
from repro.ir.callgraph import count_static_calls
from repro.perf.measure_cache import MeasurementCache
from repro.regalloc.allocator import minimal_budget
from repro.regalloc.strategy import default_strategy_id, get_strategy
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import ExecutionReport, TuningSession, Workload
from repro.sim.backend import MeasurementResult
from repro.sim.energy import gpu_power


# ----------------------------------------------------------------------
# Shared plumbing (everything cached per benchmark+architecture)
# ----------------------------------------------------------------------
_COMPILE_CACHE: dict[tuple[str, str, str], MultiVersionBinary] = {}
_NVCC_CACHE: dict[tuple[str, str], KernelVersion] = {}
#: one content-addressed measurement cache shared by every engine the
#: harness creates, so launches repeated across figures, tables, and
#: tuning sessions dedupe to a single backend invocation
_MEASUREMENT_CACHE = MeasurementCache()
_ENGINES: dict[tuple[str, str, str], ExecutionEngine] = {}


def engine(
    arch: GpuArchitecture,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    backend: str = "timing",
) -> ExecutionEngine:
    """The harness's engine for one (architecture, cache config, backend).

    Engines share one measurement cache: every figure and table that
    re-measures a launch another experiment already measured gets a
    cache hit instead of a simulation.
    """
    key = (arch.name, cache_config.value, backend)
    if key not in _ENGINES:
        _ENGINES[key] = ExecutionEngine(
            arch,
            backend=backend,
            cache_config=cache_config,
            measurement_cache=_MEASUREMENT_CACHE,
        )
    return _ENGINES[key]


def compiled(
    spec: BenchmarkSpec,
    arch: GpuArchitecture,
    strategy: str | None = None,
) -> MultiVersionBinary:
    """The benchmark's fat binary, compiled once per (arch, strategy).

    ``strategy`` is a :mod:`repro.regalloc.strategy` selector (an id or
    ``"mixed"``); ``None`` resolves the session default, matching what
    a bare :class:`CompileOptions` would do.
    """
    sid = strategy if strategy is not None else default_strategy_id()
    key = (spec.name, arch.name, sid)
    if key not in _COMPILE_CACHE:
        module = spec.build()
        _COMPILE_CACHE[key] = compile_binary(
            module,
            module.kernel().name,
            CompileOptions(
                arch=arch,
                block_size=spec.workload.block_size,
                can_tune=spec.workload.can_tune,
                strategy=sid,
            ),
        )
    return _COMPILE_CACHE[key]


def nvcc_version(spec: BenchmarkSpec, arch: GpuArchitecture) -> KernelVersion:
    key = (spec.name, arch.name)
    if key not in _NVCC_CACHE:
        module = spec.build()
        _NVCC_CACHE[key] = nvcc_baseline(
            module,
            module.kernel().name,
            arch,
            block_size=spec.workload.block_size,
        )
    return _NVCC_CACHE[key]


def time_version(
    spec: BenchmarkSpec,
    arch: GpuArchitecture,
    version: KernelVersion,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
) -> MeasurementResult:
    """One launch of one version under the benchmark's workload traits.

    Goes through the execution engine, so repeats (within this figure
    or any other) are measurement-cache hits.
    """
    wl = spec.workload
    return engine(arch, cache_config).measure(
        version,
        wl.launch(),
        Workload(
            launch=wl.launch(),
            traits=wl.traits,
            ilp=wl.ilp,
            max_events_per_warp=wl.max_events_per_warp,
        ),
        session=spec.name,
    )


def clear_caches() -> None:
    _COMPILE_CACHE.clear()
    _NVCC_CACHE.clear()
    _MEASUREMENT_CACHE.clear()
    _ENGINES.clear()
    _SWEEP_CACHE.clear()
    _EXECUTE_CACHE.clear()


# ----------------------------------------------------------------------
# Occupancy sweeps (Figures 1, 2, 10, 14, 15)
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    warps: int
    occupancy: float
    cycles: int
    version: KernelVersion = field(repr=False, compare=False, default=None)


@dataclass
class SweepResult:
    benchmark: str
    arch_name: str
    points: list[SweepPoint]

    @property
    def best(self) -> SweepPoint:
        return min(self.points, key=lambda p: p.cycles)

    @property
    def worst(self) -> SweepPoint:
        return max(self.points, key=lambda p: p.cycles)

    def normalized(self, to: str = "best") -> list[tuple[float, float]]:
        """(occupancy, normalized runtime) pairs.

        ``to``: "best" normalises to the fastest level (Figures 1/2),
        "max" to the highest-occupancy level (Figure 10's convention).
        """
        if to == "best":
            denom = self.best.cycles
        elif to == "max":
            denom = self.points[-1].cycles
        else:
            raise ValueError(f"unknown normalisation {to!r}")
        return [(p.occupancy, p.cycles / denom) for p in self.points]

    def render(self, to: str = "best") -> str:
        pairs = self.normalized(to)
        return (
            f"{self.benchmark} on {self.arch_name}\n"
            + format_series(
                [o for o, _ in pairs],
                [r for _, r in pairs],
                "occupancy",
                "normalized runtime",
            )
        )


_SWEEP_CACHE: dict[tuple[str, str, str, str], SweepResult] = {}


def occupancy_sweep(
    benchmark: str,
    arch: GpuArchitecture,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    strategy: str | None = None,
) -> SweepResult:
    """Orion-generated code at every occupancy level, timed.

    This is the paper's evaluation methodology: "we let the Orion
    compiler generate code at all occupancy levels, allowing for
    identification of the best and worst cases."  ``strategy`` names a
    concrete allocation strategy (``None`` = the reference
    ``local-spill``, keeping figure generation deterministic).
    """
    sid = get_strategy(strategy).id
    cache_key = (benchmark, arch.name, cache_config.value, sid)
    if cache_key in _SWEEP_CACHE:
        return _SWEEP_CACHE[cache_key]
    spec = BENCHMARKS[benchmark]
    module = spec.build()
    kernel = module.kernel().name
    suffix = "" if sid == "local-spill" else f" [{sid}]"
    points = []
    for warps in occupancy_levels(arch, spec.workload.block_size):
        try:
            version = realize_occupancy(
                module,
                kernel,
                arch,
                spec.workload.block_size,
                warps,
                cache_config,
                conservative=True,
                label=f"sweep warps={warps}{suffix}",
                strategy=sid,
            )
        except RealizeError:
            continue
        measured = time_version(spec, arch, version, cache_config)
        points.append(
            SweepPoint(
                warps=warps,
                occupancy=warps / arch.max_warps_per_sm,
                cycles=measured.cycles,
                version=version,
            )
        )
    result = SweepResult(
        benchmark=benchmark, arch_name=arch.name, points=points
    )
    _SWEEP_CACHE[cache_key] = result
    return result


def figure1() -> SweepResult:
    """Fig. 1: imageDenoising on GTX680 — the motivating ~3x bell."""
    return occupancy_sweep("imageDenoising", GTX680)


def figure2() -> SweepResult:
    """Fig. 2: matrixMul — performance plateaus above ~50% occupancy."""
    return occupancy_sweep("matrixMul", TESLA_C2075)


def figure10() -> SweepResult:
    """Fig. 10: srad on Tesla C2075 — halving occupancy costs nothing."""
    return occupancy_sweep("srad", TESLA_C2075)


def figure14() -> dict[str, SweepResult]:
    """Fig. 14: gaussian (flat) and streamcluster (skewed bell), C2075."""
    return {
        "gaussian": occupancy_sweep("gaussian", TESLA_C2075),
        "streamcluster": occupancy_sweep("streamcluster", TESLA_C2075),
    }


def figure15() -> dict[str, SweepResult]:
    """Fig. 15: backprop and bfs on GTX680."""
    return {
        "backprop": occupancy_sweep("backprop", GTX680),
        "bfs": occupancy_sweep("bfs", GTX680),
    }


# ----------------------------------------------------------------------
# Figure 5: inter-procedure allocation ablations
# ----------------------------------------------------------------------
@dataclass
class Fig5Row:
    benchmark: str
    no_space_minimization: float  # normalised runtime vs optimised
    no_movement_minimization: float
    optimized_moves: int
    unoptimized_moves: int


def figure5(arch: GpuArchitecture = TESLA_C2075) -> list[Fig5Row]:
    """Optimised vs unoptimised inter-procedure allocation (Fig. 5).

    "No Space Minimization" gives the callee a window above the caller's
    full frame (more registers -> more spills at the same occupancy);
    "No Data Movement Minimization" keeps the allocator's slot layout
    instead of the Kuhn–Munkres one (more saves/restores per call).
    Both ablations target the highest occupancy level Orion's compiler
    generates for the kernel — the configuration where inter-procedure
    allocation pressure is at its strongest.
    """
    rows = []
    for spec in figure5_benchmarks():
        module = spec.build()
        kernel = module.kernel().name
        candidates = compiled(spec, arch).versions
        target = max(v.achieved_warps for v in candidates)
        variants = {}
        moves = {}
        for label, space, movement in (
            ("optimized", True, True),
            ("no_space", False, True),
            ("no_movement", True, False),
        ):
            version = realize_occupancy(
                module,
                kernel,
                arch,
                spec.workload.block_size,
                target,
                conservative=True,
                label=f"fig5 {label} warps={target}",
                space_minimization=space,
                movement_minimization=movement,
            )
            variants[label] = time_version(spec, arch, version).cycles
            moves[label] = version.outcome.stack_moves
        base = variants["optimized"]
        rows.append(
            Fig5Row(
                benchmark=spec.name,
                no_space_minimization=variants["no_space"] / base,
                no_movement_minimization=variants["no_movement"] / base,
                optimized_moves=moves["optimized"],
                unoptimized_moves=moves["no_movement"],
            )
        )
    return rows


def render_figure5(rows: list[Fig5Row]) -> str:
    return format_table(
        ["benchmark", "no space min", "no movement min", "opt moves", "unopt moves"],
        [
            (
                r.benchmark,
                r.no_space_minimization,
                r.no_movement_minimization,
                r.optimized_moves,
                r.unoptimized_moves,
            )
            for r in rows
        ],
        title="Figure 5: inter-procedure allocation ablation "
        "(normalized runtime vs optimized)",
    )


# ----------------------------------------------------------------------
# Figure 11: the headline speedup comparison
# ----------------------------------------------------------------------
@dataclass
class Fig11Row:
    benchmark: str
    orion_min: float  # normalised speedup over nvcc (worst level)
    nvcc: float  # 1.0 by construction
    orion_max: float  # best level
    orion_select: float  # dynamic tuning, overhead included
    selected_label: str
    iterations_to_converge: int | None


def orion_selected_version(
    spec: BenchmarkSpec, arch: GpuArchitecture
) -> KernelVersion:
    """The version Orion's runtime finally locks in for a benchmark."""
    if spec.force_original:
        return compiled(spec, arch).original
    report = _execute(spec, arch)
    return report.final_version


_EXECUTE_CACHE: dict[tuple[str, str], object] = {}


def _execute(spec: BenchmarkSpec, arch: GpuArchitecture):
    key = (spec.name, arch.name)
    if key not in _EXECUTE_CACHE:
        session = TuningSession(
            compiled(spec, arch), _workload(spec), name=spec.name
        )
        _EXECUTE_CACHE[key] = engine(arch).run(session)
    return _EXECUTE_CACHE[key]


def bench_suite(
    arch: GpuArchitecture,
    backend: str = "timing",
    jobs: int | None = None,
    only: list[str] | None = None,
    suite_engine: ExecutionEngine | None = None,
    strategy: str | None = None,
) -> list[tuple[str, ExecutionReport]]:
    """Drive the whole benchmark suite through one engine, concurrently.

    One :class:`TuningSession` per benchmark, scheduled by
    ``ExecutionEngine.run_many`` (``jobs``/``ORION_ENGINE_JOBS`` wide).
    Sessions are independent and measurements content-addressed, so the
    reports are identical at any scheduler width.  Pass ``suite_engine``
    to control the backend instance, telemetry sinks, or trace file;
    ``only`` restricts to a subset of benchmark names; ``strategy`` is
    the allocation-strategy selector handed to :func:`compiled`.
    """
    names = list(only) if only else list(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmark(s): {', '.join(unknown)}")
    eng = suite_engine or engine(arch, backend=backend)
    sessions = [
        TuningSession(
            compiled(BENCHMARKS[name], arch, strategy=strategy),
            _workload(BENCHMARKS[name]),
            name=name,
        )
        for name in names
    ]
    reports = eng.run_many(sessions, jobs=jobs)
    # The engine isolates per-session failures (slot is None) so the
    # rest of the suite completes; surface them here, after the batch.
    failed = [
        (name, session)
        for name, session, report in zip(names, sessions, reports)
        if report is None
    ]
    if failed:
        first = failed[0][1].error or "unknown failure"
        raise RuntimeError(
            f"benchmark session(s) failed: "
            f"{', '.join(name for name, _ in failed)}\n{first}"
        )
    return list(zip(names, reports))


def _workload(spec: BenchmarkSpec) -> Workload:
    wl = spec.workload
    return Workload(
        launch=wl.launch(),
        iterations=wl.iterations,
        traits=wl.traits,
        ilp=wl.ilp,
        max_events_per_warp=wl.max_events_per_warp,
    )


def figure11(arch: GpuArchitecture) -> list[Fig11Row]:
    """Fig. 11: normalized speedup over the nvcc baseline.

    Orion-Min/Max are the worst/best single occupancy levels found by
    exhaustive sweep; Orion-Select is the dynamically tuned execution
    *including* its tuning-iteration overhead.
    """
    rows = []
    for spec in upward_benchmarks():
        sweep = occupancy_sweep(spec.name, arch)
        nvcc = nvcc_version(spec, arch)
        iterations = max(1, spec.workload.iterations)
        nvcc_total = time_version(spec, arch, nvcc).cycles * iterations

        # "All occupancy levels" includes the compiler's own candidate
        # versions (the original may beat every conservative level).
        level_cycles = [p.cycles for p in sweep.points]
        for version in compiled(spec, arch).versions:
            level_cycles.append(time_version(spec, arch, version).cycles)

        if spec.force_original or not spec.workload.can_tune:
            selected = orion_selected_version(spec, arch)
            select_total = (
                time_version(spec, arch, selected).cycles * iterations
            )
            converged = 0
            label = selected.label
        else:
            report = _execute(spec, arch)
            select_total = report.total_cycles
            converged = report.iterations_to_converge
            label = report.final_label

        min_total = max(level_cycles) * iterations
        max_total = min(level_cycles) * iterations
        rows.append(
            Fig11Row(
                benchmark=spec.name,
                orion_min=nvcc_total / min_total,
                nvcc=1.0,
                orion_max=nvcc_total / max_total,
                orion_select=nvcc_total / select_total,
                selected_label=label,
                iterations_to_converge=converged,
            )
        )
    return rows


def average_select_speedup(rows: list[Fig11Row]) -> float:
    """The paper's headline: mean Orion-Select speedup over nvcc."""
    return sum(r.orion_select for r in rows) / len(rows)


def render_figure11(rows: list[Fig11Row], arch_name: str) -> str:
    table = format_table(
        ["benchmark", "Orion-Min", "nvcc", "Orion-Max", "Orion-Select", "picked", "iters"],
        [
            (
                r.benchmark,
                r.orion_min,
                r.nvcc,
                r.orion_max,
                r.orion_select,
                r.selected_label,
                r.iterations_to_converge,
            )
            for r in rows
        ],
        title=f"Figure 11: normalized speedup over nvcc ({arch_name})",
    )
    avg = (average_select_speedup(rows) - 1.0) * 100
    return f"{table}\naverage Orion-Select speedup: {avg:+.2f}%"


# ----------------------------------------------------------------------
# Figure 12: downward tuning — registers and runtime
# ----------------------------------------------------------------------
@dataclass
class Fig12Row:
    benchmark: str
    normalized_registers: float
    normalized_runtime: float
    selected_label: str


def figure12(arch: GpuArchitecture) -> list[Fig12Row]:
    """Fig. 12: register-file use & runtime of the tuned-down versions,
    normalised to the nvcc-generated program."""
    rows = []
    for spec in downward_benchmarks():
        nvcc = nvcc_version(spec, arch)
        wl = spec.workload
        nvcc_occ = calculate_occupancy(
            arch, wl.block_size, nvcc.regs_per_thread, nvcc.smem_per_block
        )
        selected = orion_selected_version(spec, arch)
        sel_occ = calculate_occupancy(
            arch, wl.block_size, selected.regs_per_thread, selected.smem_per_block
        )
        nvcc_cycles = time_version(spec, arch, nvcc).cycles
        sel_cycles = time_version(spec, arch, selected).cycles
        rows.append(
            Fig12Row(
                benchmark=spec.name,
                normalized_registers=(
                    sel_occ.allocated_registers / nvcc_occ.allocated_registers
                ),
                normalized_runtime=sel_cycles / nvcc_cycles,
                selected_label=selected.label,
            )
        )
    return rows


def average_register_saving(rows: list[Fig12Row]) -> float:
    """Mean occupancy/register reduction (paper: 19.17% on average)."""
    return sum(1.0 - r.normalized_registers for r in rows) / len(rows)


def render_figure12(rows: list[Fig12Row], arch_name: str) -> str:
    table = format_table(
        ["benchmark", "registers", "runtime", "picked"],
        [
            (r.benchmark, r.normalized_registers, r.normalized_runtime, r.selected_label)
            for r in rows
        ],
        title=f"Figure 12: downward occupancy tuning ({arch_name}), "
        "normalized to nvcc",
    )
    saving = average_register_saving(rows) * 100
    return f"{table}\naverage register saving: {saving:.2f}%"


# ----------------------------------------------------------------------
# Figure 13: energy (Tesla C2075)
# ----------------------------------------------------------------------
@dataclass
class Fig13Row:
    benchmark: str
    selected_energy: float  # normalised to nvcc
    ideal_energy: float  # exhaustive-search minimum


def figure13(arch: GpuArchitecture = TESLA_C2075) -> list[Fig13Row]:
    """Fig. 13: normalized energy of the selected kernel vs the ideal.

    Power follows the occupancy's register-file utilisation (the
    mechanism the paper measures with CUPTI); energy = power x cycles.
    """
    rows = []
    for spec in downward_benchmarks():
        wl = spec.workload
        nvcc = nvcc_version(spec, arch)
        nvcc_occ = calculate_occupancy(
            arch, wl.block_size, nvcc.regs_per_thread, nvcc.smem_per_block
        )
        nvcc_energy = (
            gpu_power(arch, nvcc_occ)
            * time_version(spec, arch, nvcc).cycles
        )

        selected = orion_selected_version(spec, arch)
        sel_occ = calculate_occupancy(
            arch, wl.block_size, selected.regs_per_thread, selected.smem_per_block
        )
        sel_energy = (
            gpu_power(arch, sel_occ)
            * time_version(spec, arch, selected).cycles
        )

        sweep = occupancy_sweep(spec.name, arch)
        ideal = min(
            gpu_power(
                arch,
                calculate_occupancy(
                    arch,
                    wl.block_size,
                    p.version.regs_per_thread,
                    p.version.smem_per_block,
                ),
            )
            * p.cycles
            for p in sweep.points
        )
        rows.append(
            Fig13Row(
                benchmark=spec.name,
                selected_energy=sel_energy / nvcc_energy,
                ideal_energy=ideal / nvcc_energy,
            )
        )
    return rows


def render_figure13(rows: list[Fig13Row]) -> str:
    return format_table(
        ["benchmark", "selected", "ideal"],
        [(r.benchmark, r.selected_energy, r.ideal_energy) for r in rows],
        title="Figure 13: normalized energy of selected kernel (Tesla C2075)",
    )


# ----------------------------------------------------------------------
# Table 2: benchmark information
# ----------------------------------------------------------------------
@dataclass
class Table2Row:
    benchmark: str
    domain: str
    paper_regs: int | None
    measured_regs: int
    paper_calls: int | None
    measured_calls: int
    paper_smem: bool
    measured_smem: bool


def table2() -> list[Table2Row]:
    """Table 2: Reg (spill-free registers), Func (static calls), Smem."""
    rows = []
    for spec in table2_benchmarks():
        module = spec.build()
        kernel = module.kernel().name
        rows.append(
            Table2Row(
                benchmark=spec.name,
                domain=spec.domain,
                paper_regs=spec.paper_regs,
                measured_regs=minimal_budget(module, kernel, upper_bound=96)[0],
                paper_calls=spec.paper_calls,
                measured_calls=count_static_calls(module, kernel),
                paper_smem=spec.paper_smem,
                measured_smem=module.kernel().shared_bytes > 0,
            )
        )
    return rows


def render_table2(rows: list[Table2Row]) -> str:
    return format_table(
        ["benchmark", "domain", "Reg (paper)", "Reg (ours)",
         "Func (paper)", "Func (ours)", "Smem (paper)", "Smem (ours)"],
        [
            (
                r.benchmark,
                r.domain,
                r.paper_regs,
                r.measured_regs,
                r.paper_calls,
                r.measured_calls,
                "Yes" if r.paper_smem else "No",
                "Yes" if r.measured_smem else "No",
            )
            for r in rows
        ],
        title="Table 2: benchmark information (paper vs measured)",
    )


# ----------------------------------------------------------------------
# Table 3: small-cache vs large-cache speedup
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    benchmark: str
    arch_name: str
    small_cache: float
    large_cache: float | None  # None: infeasible (occupancy requirement)


def table3(arch: GpuArchitecture) -> list[Table3Row]:
    """Table 3: speedup over nvcc at Orion's selected occupancy, under
    the small-cache (16KB L1) and large-cache (48KB L1) configurations.

    A large-cache cell is empty when the selected occupancy cannot be
    reached with only 16KB of shared memory per SM.
    """
    rows = []
    for spec in upward_benchmarks():
        module = spec.build()
        kernel = module.kernel().name
        nvcc = nvcc_version(spec, arch)
        nvcc_cycles = time_version(spec, arch, nvcc).cycles
        selected = orion_selected_version(spec, arch)
        target = selected.achieved_warps

        sc_cycles = time_version(spec, arch, selected).cycles
        large: float | None
        try:
            lc_version = realize_occupancy(
                module,
                kernel,
                arch,
                spec.workload.block_size,
                target,
                CacheConfig.LARGE_CACHE,
                conservative=True,
                label=f"large-cache warps={target}",
            )
            lc_cycles = time_version(
                spec, arch, lc_version, CacheConfig.LARGE_CACHE
            ).cycles
            large = nvcc_cycles / lc_cycles
        except RealizeError:
            large = None
        rows.append(
            Table3Row(
                benchmark=spec.name,
                arch_name=arch.name,
                small_cache=nvcc_cycles / sc_cycles,
                large_cache=large,
            )
        )
    return rows


def render_table3(rows: list[Table3Row], arch_name: str) -> str:
    return format_table(
        ["benchmark", "small cache", "large cache"],
        [(r.benchmark, r.small_cache, r.large_cache) for r in rows],
        title=f"Table 3: speedup at Orion's occupancy, SC vs LC ({arch_name})",
    )
