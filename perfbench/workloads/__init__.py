"""The benchmark's workloads and what they share.

Each workload module exposes ``run(seed, seconds, trace) -> Result``.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field

from perfbench import stats
from perfbench.hostspeed import REFERENCE_S, Gauge
from perfbench.tracing import clock

#: passes a compile or tune run makes at least: 4 x 28 = 112 samples,
#: enough for a p90 with ten samples beyond it
MIN_PASSES = 4

#: set-ups a run makes when a set-up is cheap enough to repeat
SETUP_REPEATS = 5


@dataclass
class Result:
    """One run's outcome, before printing."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: one line per check that failed (the run is then not correct)
    problems: list[str] = field(default_factory=list)
    #: human-readable report lines printed before the result
    lines: list[str] = field(default_factory=list)
    #: a traced run's spans, one ``Recorder.dump`` per process
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


def timing_lines(label: str, samples_ms: list[float], tail: float) -> list[str]:
    """``label.p50`` and ``label.pNN`` by the percentile rule, with n."""
    lines = [f"{label}.p50 = {stats.percentile(samples_ms, 0.5):.3f} ms"]
    name = f"{label}.p{round(tail * 100):d}"
    try:
        lines.append(f"{name} = {stats.percentile(samples_ms, tail):.3f} ms")
    except stats.TooFewSamples as exc:
        lines.append(f"{name} not reported: {exc}")
    lines.append(f"{label} samples = {len(samples_ms)}")
    return lines


def run_passes(seconds: float, run_pass) -> int:
    """Run whole passes until ``seconds`` have passed and MIN_PASSES ran.

    ``run_pass(index)`` does one pass.  Returns the number of passes.
    """
    started = clock()
    index = 0
    while index < MIN_PASSES or clock() - started < seconds:
        gc.collect()
        run_pass(index)
        index += 1
    return index


def pass_metrics(
    setup_s: float, pass_s: list[float], samples_ms: list[float], per_pass: int
) -> dict[str, float]:
    """End-to-end metrics of a run made of whole passes.

    All times are scaled to the reference host (``perfbench.hostspeed``).
    ``ops_per_s`` is the throughput of the median pass, which one slow
    pass cannot drag down the way a total over all passes would.
    """
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": per_pass / stats.median(pass_s),
        "op_ms.p50": stats.percentile(samples_ms, 0.5),
        "op_ms.p90": stats.percentile(samples_ms, 0.9),
    }


def gauge_lines(gauge: Gauge, raw_ms: list[float], label: str) -> list[str]:
    """What the host's speed did to a run: gauge readings, raw timings."""
    readings = [r * 1000.0 for r in gauge.readings]
    return [
        f"host gauge = {stats.median(readings):.3f} ms median of "
        f"{len(readings)} readings (min {min(readings):.3f}, max "
        f"{max(readings):.3f}; reference {REFERENCE_S * 1000.0:g} ms)",
        f"{label} unscaled: p50 {stats.median(raw_ms):.3f} ms, "
        f"mean {sum(raw_ms) / len(raw_ms):.3f} ms",
    ]


def nproc() -> int:
    return len(os.sched_getaffinity(0))
