"""Workload ``tune``: one timing-backend tuning session per binary.

Set-up cold-compiles the 28 binaries (14 kernels x GTX680, Tesla C2075)
and keeps their bytes.  Each pass decodes every binary afresh and runs
one ``TuningSession`` per binary through a new ``ExecutionEngine`` on
the ``timing`` backend, in an order drawn from the seed.  Fresh
objects and a fresh engine mean both the measurement cache and the
simulator's trace cache (keyed by module identity) start cold, as for
a newly loaded binary.  The compiler does no work inside a pass.

Two contrasts sit in the set: upward kernels trace a new module for
every candidate while downward kernels only re-pad one; and streaming
kernels sit beside cache-sensitive ones (streamcluster, srad,
matrixMul).

Each session is timed on its own and scaled by the host-speed gauge
read around it (``perfbench.hostspeed``); so is each set-up compile.

Check, outside the timed region: every session reproduces its
reference row (``reference.json``: final version, total cycles,
iterations to converge).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from perfbench import layers, stats, tracing
from perfbench.hostspeed import Gauge, Watch
from perfbench.tracing import clock
from perfbench.workloads import (
    Result,
    gauge_lines,
    pass_metrics,
    run_passes,
    timing_lines,
)

REFERENCE = Path(__file__).resolve().parent.parent / "reference.json"


def reference_rows() -> dict[str, dict[str, dict]]:
    """``{gpu: {kernel: {final_version, total_cycles, iterations_to_converge}}}``."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["tune"]


def workload_of(spec):
    """The session workload of one benchmark (its WorkloadSpec as run)."""
    from repro.runtime.session import Workload

    wl = spec.workload
    return Workload(
        launch=wl.launch(),
        iterations=wl.iterations,
        traits=wl.traits,
        ilp=wl.ilp,
        max_events_per_warp=wl.max_events_per_warp,
    )


def compile_all(archs, watch: Watch) -> tuple[list[tuple], float]:
    """Cold-compile every benchmark for ``archs``.

    Returns the (arch, name, spec, binary) tuples and the summed scaled
    time of the compiles, each timed by ``watch``.
    """
    from repro.bench.kernels import BENCHMARKS
    from repro.compiler.pipeline import CompileOptions, compile_binary

    out = []
    scaled_s = 0.0
    for arch in archs:
        for name, spec in BENCHMARKS.items():
            watch.start()
            module = spec.build()
            binary = compile_binary(
                module,
                module.kernel().name,
                CompileOptions(
                    arch=arch,
                    block_size=spec.workload.block_size,
                    can_tune=spec.workload.can_tune,
                ),
                use_cache=False,
            )
            scaled_s += watch.stop()[1]
            out.append((arch, name, spec, binary))
    return out, scaled_s


class _Tuner:
    def __init__(self, seed: int, binaries, gauge: Gauge | None) -> None:
        self.rng = random.Random(seed)
        self.gauge = gauge
        self.jobs = [
            (arch, name, workload_of(spec), binary.to_bytes())
            for arch, name, spec, binary in binaries
        ]
        self.reference = reference_rows()
        #: per session: scaled and unscaled milliseconds
        self.samples_ms: list[float] = []
        self.raw_ms: list[float] = []
        #: per pass: wall seconds, and the sum of its scaled sessions
        self.pass_s: list[float] = []
        self.scaled_pass_s: list[float] = []

    def one_pass(self, result: Result) -> list:
        """Tune every binary once; returns (gpu, kernel, report) triples."""
        from repro.compiler.multiversion import MultiVersionBinary
        from repro.runtime.engine import ExecutionEngine
        from repro.runtime.session import TuningSession

        order = list(range(len(self.jobs)))
        self.rng.shuffle(order)
        reports = []
        watch = Watch(self.gauge)
        scaled_s = 0.0
        pass_start = clock()
        engines = {}
        for index in order:
            arch, name, workload, data = self.jobs[index]
            engine = engines.get(arch.name)
            if engine is None:
                engine = engines[arch.name] = ExecutionEngine(
                    arch, backend="timing"
                )
            result.attempted += 1
            watch.start()
            try:
                binary = MultiVersionBinary.from_bytes(data)
                report = engine.run(TuningSession(binary, workload, name=name))
            except Exception as exc:  # noqa: BLE001 — counted, run goes on
                watch.stop()
                result.fail(f"{name}@{arch.name}: session raised {exc!r}")
                continue
            wall, scaled = watch.stop()
            self.raw_ms.append(wall * 1000.0)
            self.samples_ms.append(scaled * 1000.0)
            scaled_s += scaled
            reports.append((arch.name, name, report))
        self.pass_s.append(clock() - pass_start)
        self.scaled_pass_s.append(scaled_s)
        return reports

    def check(self, reports, result: Result) -> None:
        """Every session must reproduce its reference row."""
        for gpu, name, report in reports:
            row = {
                "final_version": report.final_label,
                "total_cycles": report.total_cycles,
                "iterations_to_converge": report.iterations_to_converge,
            }
            if row != self.reference[gpu][name]:
                result.fail(
                    f"{name}@{gpu}: {row} differs from the reference row "
                    f"{self.reference[gpu][name]}"
                )


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.arch.specs import GTX680, TESLA_C2075

    result = Result()
    gauge = None if trace else Gauge()
    watch = Watch(gauge)
    binaries, setup_s = compile_all((GTX680, TESLA_C2075), watch)
    watch.start()
    tuner = _Tuner(seed, binaries, gauge)
    setup_s += watch.stop()[1]
    del binaries
    if trace:
        tuner.check(tuner.one_pass(result), result)
        inst = layers.install()
        tracing.CONTEXT.set("pass-traced")
        try:
            reports = tuner.one_pass(result)
        finally:
            inst.uninstall()
            tracing.CONTEXT.set("")
        tuner.check(reports, result)
        result.spans = [inst.recorder.dump("bench")]
        result.metrics = layers.traced_metrics(
            "tune", inst, tuner.pass_s[-1], tuner.pass_s[0], result
        )
        return result
    run_passes(seconds, lambda _: tuner.check(tuner.one_pass(result), result))
    result.metrics = pass_metrics(
        setup_s, tuner.scaled_pass_s, tuner.samples_ms, len(tuner.jobs)
    )
    result.lines += [
        f"passes = {len(tuner.pass_s)}",
        f"tune_s = {stats.median(tuner.scaled_pass_s):.3f} s per pass "
        f"(median of {len(tuner.pass_s)}; unscaled wall "
        f"{stats.median(tuner.pass_s):.3f} s with the gauge readings)",
        *timing_lines("tune_kernel_ms", tuner.samples_ms, 0.9),
        *gauge_lines(gauge, tuner.raw_ms, "tune_kernel_ms"),
    ]
    for wrapper in tracing.installed_wrappers():
        result.problems.append(f"untraced run carries a wrapper: {wrapper}")
    return result
