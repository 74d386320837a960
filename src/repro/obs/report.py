"""Machine-readable bench reports (the artifact CI compares across PRs).

``repro bench --report out.json`` (and the benchmark harness itself)
serialize one run of the suite into a versioned JSON document: which
kernels ran, what the tuner picked, how long everything took in
simulated cycles, how the caches performed, and the final metrics
registry snapshot.  The schema is deliberately small and validated by
:func:`validate_bench_report`, so a CI job can fail fast on a malformed
or metric-less report instead of silently comparing garbage.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from repro.obs.metrics import get_registry
from repro.obs.spans import span_timings

SCHEMA = "orion-bench-report"
SCHEMA_VERSION = 1

_KERNEL_FIELDS = {
    "name": str,
    "final_version": str,
    "occupancy": (int, float),
    "regs_per_thread": int,
    "total_cycles": int,
    "iterations": int,
    "was_split": bool,
}


def git_revision() -> str | None:
    """The current git SHA, best-effort (``None`` outside a checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            stdin=subprocess.DEVNULL,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _cache_payload(stats) -> dict:
    return {
        "hits": stats.hits,
        "memory_hits": stats.memory_hits,
        "disk_hits": stats.disk_hits,
        "misses": stats.misses,
        "stores": stats.stores,
        "hit_rate": stats.hit_rate,
    }


def build_bench_report(
    arch_name: str,
    backend_name: str,
    rows,
    measurement_stats,
    compile_stats=None,
    telemetry=None,
    metrics_snapshot=None,
    generator: str = "repro bench",
    strategy: str = "local-spill",
) -> dict:
    """Assemble one run's report.

    ``rows`` is the ``bench_suite`` result — ``(name, ExecutionReport)``
    pairs; ``measurement_stats``/``compile_stats`` are
    :class:`~repro.perf.cache.CacheStats`; ``telemetry`` a
    :class:`~repro.obs.telemetry.TelemetryHub` whose per-kind counts
    are embedded; ``metrics_snapshot`` defaults to the process-wide
    registry's snapshot, and the per-span ``timings`` are read from it.
    ``strategy`` records the allocation-strategy selector the suite
    compiled under; each kernel row also carries the *winning version's*
    concrete strategy, so a mixed run shows which spill target each
    kernel's tuner actually picked.
    """
    if metrics_snapshot is None:
        metrics_snapshot = get_registry().snapshot()
    timings = span_timings(metrics_snapshot)
    kernels = []
    for name, report in rows:
        final = report.final_version
        kernels.append(
            {
                "name": name,
                "final_version": report.final_label,
                "occupancy": final.occupancy,
                "regs_per_thread": final.regs_per_thread,
                "smem_per_block": final.smem_per_block,
                "total_cycles": report.total_cycles,
                "iterations": len(report.records),
                "iterations_to_converge": report.iterations_to_converge,
                "was_split": report.was_split,
                "strategy": getattr(final, "strategy", "local-spill"),
            }
        )
    payload = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "generator": generator,
        "git_sha": git_revision(),
        "arch": arch_name,
        "backend": backend_name,
        "strategy": strategy,
        "kernels": kernels,
        "cache": {"measurement": _cache_payload(measurement_stats)},
        "metrics": metrics_snapshot,
        "timings": timings,
    }
    if compile_stats is not None:
        payload["cache"]["compile"] = _cache_payload(compile_stats)
    if telemetry is not None:
        payload["telemetry"] = {
            "event_counts": {
                kind.value: count
                for kind, count in sorted(
                    telemetry.counts.items(), key=lambda kv: kv[0].value
                )
            }
        }
    return payload


def validate_bench_report(report: dict) -> list[str]:
    """Schema check; returns problem descriptions (empty = valid).

    Deliberately strict about the pieces CI consumes: the schema
    identifier/version, per-kernel timing fields, cache hit-rate
    numbers, and the presence of cache metrics in the registry
    snapshot.
    """
    errors: list[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != SCHEMA:
        errors.append(f"schema is {report.get('schema')!r}, want {SCHEMA!r}")
    if report.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version is {report.get('schema_version')!r}, "
            f"want {SCHEMA_VERSION}"
        )
    kernels = report.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        errors.append("kernels: missing or empty")
    else:
        for i, kernel in enumerate(kernels):
            if not isinstance(kernel, dict):
                errors.append(f"kernels[{i}]: not an object")
                continue
            for field, types in _KERNEL_FIELDS.items():
                if not isinstance(kernel.get(field), types):
                    errors.append(
                        f"kernels[{i}].{field}: missing or wrong type"
                    )
            # Optional (absent in pre-strategy reports); typed when given.
            if "strategy" in kernel and not isinstance(
                kernel["strategy"], str
            ):
                errors.append(f"kernels[{i}].strategy: not a string")
    if "strategy" in report and not isinstance(report["strategy"], str):
        errors.append("strategy: not a string")
    cache = report.get("cache")
    if not isinstance(cache, dict) or "measurement" not in cache:
        errors.append("cache.measurement: missing")
    else:
        for tier, stats in cache.items():
            if not isinstance(stats, dict) or not isinstance(
                stats.get("hit_rate"), (int, float)
            ):
                errors.append(f"cache.{tier}.hit_rate: missing or not numeric")
    metrics = report.get("metrics")
    if not isinstance(metrics, dict) or not isinstance(
        metrics.get("metrics"), list
    ):
        errors.append("metrics: missing registry snapshot")
    else:
        names = {f.get("name") for f in metrics["metrics"]}
        if "orion_cache_lookups_total" not in names:
            errors.append(
                "metrics: cache hit-rate metric "
                "orion_cache_lookups_total is absent"
            )
    return errors


def compare_reports(
    baseline: dict,
    current: dict,
    threshold: float = 0.25,
    min_seconds: float = 0.05,
    slack_seconds: float = 0.5,
) -> list[str]:
    """Regression-check ``current`` against a committed ``baseline``.

    Returns problem descriptions (empty = no regression).  Two gates:

    * **determinism** — a kernel present in both reports must report
      exactly the same ``total_cycles`` and ``final_version``; simulated
      results are machine-independent, so any drift is a real behaviour
      change, not noise.
    * **per-phase slowdown** — a timed phase more than ``threshold``
      slower than the baseline predicts.  Wall-clock comparisons across
      machines need normalization: each phase's expectation is scaled
      by the overall speed ratio (total comparable seconds, current /
      baseline), so a uniformly slower CI box shifts every expectation
      while a phase regressing relative to its peers sticks out.
      Phases under ``min_seconds`` in the baseline are ignored, and a
      phase must exceed its expectation by both ``threshold`` *and*
      ``slack_seconds`` — scheduler jitter on a short phase is noise,
      not a regression.
    """
    problems: list[str] = []
    base_strategy = baseline.get("strategy")
    cur_strategy = current.get("strategy")
    if (
        base_strategy is not None
        and cur_strategy is not None
        and base_strategy != cur_strategy
    ):
        problems.append(
            f"allocation strategy changed {base_strategy!r} -> "
            f"{cur_strategy!r}: reports are not comparable"
        )
    base_kernels = {k.get("name"): k for k in baseline.get("kernels", [])}
    for kernel in current.get("kernels", []):
        base = base_kernels.get(kernel.get("name"))
        if base is None:
            continue
        for field in ("total_cycles", "final_version"):
            if kernel.get(field) != base.get(field):
                problems.append(
                    f"kernel {kernel['name']}: {field} changed "
                    f"{base.get(field)!r} -> {kernel.get(field)!r}"
                )
        # Present in both reports → the winner's spill target must agree
        # (absent in pre-strategy baselines, where it is local-spill).
        if (
            "strategy" in kernel
            and "strategy" in base
            and kernel["strategy"] != base["strategy"]
        ):
            problems.append(
                f"kernel {kernel['name']}: winning strategy changed "
                f"{base['strategy']!r} -> {kernel['strategy']!r}"
            )
    base_timings = baseline.get("timings") or {}
    cur_timings = current.get("timings") or {}
    comparable = []
    for name, base_stat in sorted(base_timings.items()):
        cur_stat = cur_timings.get(name)
        if cur_stat is None or base_stat["seconds"] < min_seconds:
            continue
        comparable.append((name, base_stat["seconds"], cur_stat["seconds"]))
    if comparable:
        base_total = sum(b for _, b, _ in comparable)
        cur_total = sum(c for _, _, c in comparable)
        scale = cur_total / base_total
        for name, base_seconds, cur_seconds in comparable:
            expected = base_seconds * scale
            if (
                cur_seconds > expected * (1.0 + threshold)
                and cur_seconds - expected > slack_seconds
            ):
                problems.append(
                    f"phase {name}: {cur_seconds:.3f}s vs {expected:.3f}s "
                    f"expected from baseline (>{threshold:.0%} slowdown)"
                )
    return problems


def write_report(report: dict, path: str | Path) -> Path:
    """Write the report as stable, diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
