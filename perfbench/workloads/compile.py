"""Workload ``compile``: cold-compile every benchmark kernel for both GPUs.

One pass compiles the 14 kernels of ``repro.bench.kernels.BENCHMARKS``
for GTX680 and Tesla C2075 with ``compile_binary(..., use_cache=False)``
under the default strategy, in an order drawn from the seed.  Nothing
is simulated.  The set mixes upward kernels (several conservative
realizations, high register pressure, call-heavy) with downward ones
(re-pad only), so an allocator change that helps only high-pressure
kernels moves the p90 and not the p50.

Each compile is timed on its own and scaled by the host-speed gauge
read around it (``perfbench.hostspeed``); a pass's time is the sum of
its compiles.

Checks, outside the timed region: every binary of the first pass passes
``verify_binary``, and every later pass emits byte-identical binaries.
"""

from __future__ import annotations

import random

from perfbench import layers, stats, tracing
from perfbench.hostspeed import Gauge, Watch
from perfbench.tracing import clock
from perfbench.workloads import (
    SETUP_REPEATS,
    Result,
    gauge_lines,
    pass_metrics,
    run_passes,
    timing_lines,
)


def _jobs():
    from repro.arch.specs import GTX680, TESLA_C2075
    from repro.bench.kernels import BENCHMARKS
    from repro.compiler.pipeline import CompileOptions

    jobs = []
    for arch in (GTX680, TESLA_C2075):
        for name, spec in BENCHMARKS.items():
            options = CompileOptions(
                arch=arch,
                block_size=spec.workload.block_size,
                can_tune=spec.workload.can_tune,
            )
            jobs.append((f"{name}@{arch.name}", spec.build(), options))
    return jobs


class _Compiler:
    def __init__(self, seed: int, jobs, gauge: Gauge | None) -> None:
        self.jobs = jobs
        self.gauge = gauge
        self.rng = random.Random(seed)
        self.reference: dict[str, bytes] = {}
        self.first: list = []
        #: per compile: scaled and unscaled milliseconds
        self.samples_ms: list[float] = []
        self.raw_ms: list[float] = []
        #: per pass: wall seconds, and the sum of its scaled compiles
        self.pass_s: list[float] = []
        self.scaled_pass_s: list[float] = []

    def one_pass(self, result: Result) -> list:
        """Compile every job once; returns the (label, binary) outputs."""
        from repro.compiler.pipeline import compile_binary

        order = list(range(len(self.jobs)))
        self.rng.shuffle(order)
        outputs = []
        watch = Watch(self.gauge)
        scaled_s = 0.0
        pass_start = clock()
        for index in order:
            label, module, options = self.jobs[index]
            result.attempted += 1
            watch.start()
            try:
                binary = compile_binary(
                    module, module.kernel().name, options, use_cache=False
                )
            except Exception as exc:  # noqa: BLE001 — counted, run goes on
                watch.stop()
                result.fail(f"{label}: compile raised {exc!r}")
                continue
            wall, scaled = watch.stop()
            self.raw_ms.append(wall * 1000.0)
            self.samples_ms.append(scaled * 1000.0)
            scaled_s += scaled
            outputs.append((label, binary))
        self.pass_s.append(clock() - pass_start)
        self.scaled_pass_s.append(scaled_s)
        return outputs

    def check(self, outputs, result: Result) -> None:
        """Later passes must repeat the first pass's bytes exactly."""
        for label, binary in outputs:
            data = binary.to_bytes()
            if label not in self.reference:
                self.reference[label] = data
                self.first.append((label, binary))
            elif data != self.reference[label]:
                result.fail(f"{label}: compile output differs between passes")

    def verify(self, result: Result) -> None:
        from repro.compiler.pipeline import verify_binary

        for label, binary in self.first:
            try:
                verify_binary(binary)
            except ValueError as exc:
                result.fail(f"{label}: verify_binary failed: {exc}")


def _set_up(gauge: Gauge | None) -> tuple[list, list[float]]:
    """The compile inputs, and each set-up's scaled time."""
    watch = Watch(gauge)
    times, jobs = [], None
    for _ in range(SETUP_REPEATS):
        watch.start()
        jobs = _jobs()
        times.append(watch.stop()[1])
    return jobs, times


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    gauge = None if trace else Gauge()
    jobs, setup_times = _set_up(gauge)
    compiler = _Compiler(seed, jobs, gauge)
    if trace:
        compiler.check(compiler.one_pass(result), result)
        inst = layers.install()
        tracing.CONTEXT.set("pass-traced")
        try:
            outputs = compiler.one_pass(result)
        finally:
            inst.uninstall()
            tracing.CONTEXT.set("")
        compiler.check(outputs, result)
        result.spans = [inst.recorder.dump("bench")]
        result.metrics = layers.traced_metrics(
            "compile", inst, compiler.pass_s[-1], compiler.pass_s[0], result
        )
    else:
        run_passes(
            seconds,
            lambda _: compiler.check(compiler.one_pass(result), result),
        )
        result.metrics = pass_metrics(
            stats.median(setup_times),
            compiler.scaled_pass_s,
            compiler.samples_ms,
            len(jobs),
        )
        result.lines += [
            f"passes = {len(compiler.pass_s)}",
            f"compile_s = {stats.median(compiler.scaled_pass_s):.3f} s per "
            f"pass (median of {len(compiler.pass_s)}; unscaled wall "
            f"{stats.median(compiler.pass_s):.3f} s with the gauge readings)",
            *timing_lines("compile_kernel_ms", compiler.samples_ms, 0.9),
            *gauge_lines(gauge, compiler.raw_ms, "compile_kernel_ms"),
        ]
        for wrapper in tracing.installed_wrappers():
            result.problems.append(f"untraced run carries a wrapper: {wrapper}")
    compiler.verify(result)
    return result
