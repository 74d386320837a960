"""Plain-text rendering of experiment results (tables and series).

The paper's artifacts are figures and tables; this module prints the
same rows/series as aligned ASCII so a terminal run of the benchmark
harness reads like the evaluation section.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    materialised = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in materialised)
    return "\n".join(out)


def format_series(
    xs: Sequence[float], ys: Sequence[float], x_label: str, y_label: str
) -> str:
    """Render an (x, y) series the way the paper's curve figures read."""
    header = f"{x_label:>10s}  {y_label}"
    lines = [header, "-" * len(header)]
    peak = max(ys) if ys else 1.0
    for x, y in zip(xs, ys):
        bar = "#" * max(1, round(30 * y / peak)) if peak else ""
        lines.append(f"{x:10.3f}  {y:8.3f}  {bar}")
    return "\n".join(lines)


def format_phase_report(
    snapshot: dict | None = None,
    cache_stats=None,
    title: str = "Compilation phases",
) -> str:
    """Render per-span calls and seconds plus compile-cache counters.

    ``snapshot`` is a metrics-registry snapshot (default: the live
    registry's), read through :func:`repro.obs.spans.span_timings`;
    ``cache_stats`` defaults to the default compile cache's counters.
    """
    from repro.obs.spans import span_timings
    from repro.perf import default_cache

    cache_stats = default_cache().stats if cache_stats is None else cache_stats
    timings = span_timings(snapshot)
    total = sum(stats["seconds"] for stats in timings.values())
    rows = [
        (
            name,
            stats["calls"],
            stats["seconds"],
            (100.0 * stats["seconds"] / total) if total else 0.0,
        )
        for name, stats in sorted(
            timings.items(), key=lambda item: -item[1]["seconds"]
        )
    ]
    rows.append(("total", sum(s["calls"] for s in timings.values()), total, 100.0 if total else 0.0))
    table = format_table(
        ["phase", "calls", "seconds", "%"],
        [(n, c, f"{s:.3f}", f"{p:.1f}") for n, c, s, p in rows],
        title=title,
    )
    cache_line = (
        f"compile cache: {cache_stats.hits} hits "
        f"({cache_stats.memory_hits} memory, {cache_stats.disk_hits} disk), "
        f"{cache_stats.misses} misses, "
        f"hit rate {100.0 * cache_stats.hit_rate:.1f}%"
    )
    return table + "\n" + cache_line


def format_suite_report(
    rows: Iterable[tuple[str, object]],
    title: str = "Benchmark suite (execution engine)",
) -> str:
    """Render (benchmark, ExecutionReport) pairs the engine produced."""
    return format_table(
        ["benchmark", "final version", "total cycles", "iters", "converged @", "split"],
        [
            (
                name,
                report.final_label,
                report.total_cycles,
                len(report.records),
                report.iterations_to_converge,
                "yes" if report.was_split else "no",
            )
            for name, report in rows
        ],
        title=title,
    )


def format_telemetry_summary(hub, cache_stats=None) -> str:
    """Render a :class:`~repro.obs.telemetry.TelemetryHub`'s event
    counts plus the measurement-cache counters — the engine-side twin
    of :func:`format_phase_report`."""
    rows = [
        (kind.value, count)
        for kind, count in sorted(hub.counts.items(), key=lambda kv: kv[0].value)
    ]
    table = format_table(["event", "count"], rows, title="Engine telemetry")
    if cache_stats is None:
        return table
    cache_line = (
        f"measurement cache: {cache_stats.hits} hits "
        f"({cache_stats.memory_hits} memory, {cache_stats.disk_hits} disk), "
        f"{cache_stats.misses} misses, "
        f"hit rate {100.0 * cache_stats.hit_rate:.1f}%"
    )
    return table + "\n" + cache_line


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
