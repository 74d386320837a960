"""Bench-report tests: build, validate, round-trip."""

from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry, reset_registry
from repro.obs.report import (
    SCHEMA,
    SCHEMA_VERSION,
    build_bench_report,
    compare_reports,
    load_report,
    validate_bench_report,
    write_report,
)
from repro.obs.telemetry import EventKind, TelemetryHub
from repro.perf.cache import CacheStats


def fake_rows():
    final = SimpleNamespace(
        occupancy=0.75, regs_per_thread=32, smem_per_block=2048
    )
    report = SimpleNamespace(
        final_version=final,
        final_label="conservative warps=48",
        total_cycles=123456,
        records=[object()] * 10,
        iterations_to_converge=3,
        was_split=False,
    )
    return [("gaussian", report)]


@pytest.fixture()
def charged_registry():
    reset_registry()
    get_registry().counter(
        "orion_cache_lookups_total", "lookups"
    ).inc(cache="measure", result="miss")
    yield get_registry()
    reset_registry()


def build(charge=True, **kwargs):
    stats = CacheStats(memory_hits=8, misses=2, stores=2)
    return build_bench_report(
        "GTX680", "timing", fake_rows(), stats, **kwargs
    )


class TestBuild:
    def test_shape_and_schema(self, charged_registry):
        report = build()
        assert report["schema"] == SCHEMA
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["arch"] == "GTX680"
        assert report["backend"] == "timing"
        (kernel,) = report["kernels"]
        assert kernel["name"] == "gaussian"
        assert kernel["final_version"] == "conservative warps=48"
        assert kernel["total_cycles"] == 123456
        assert kernel["iterations"] == 10
        assert kernel["iterations_to_converge"] == 3
        assert report["cache"]["measurement"]["hit_rate"] == 0.8

    def test_git_sha_recorded_in_a_checkout(self, charged_registry):
        sha = build()["git_sha"]
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_embeds_telemetry_counts(self, charged_registry):
        hub = TelemetryHub()
        hub.emit(EventKind.CACHE_HIT)
        hub.emit(EventKind.CACHE_HIT)
        report = build(telemetry=hub)
        assert report["telemetry"]["event_counts"] == {"cache_hit": 2}

    def test_compile_stats_are_optional(self, charged_registry):
        assert "compile" not in build()["cache"]
        with_compile = build(compile_stats=CacheStats(memory_hits=1))
        assert with_compile["cache"]["compile"]["hits"] == 1

    def test_defaults_to_process_registry_snapshot(self, charged_registry):
        names = {f["name"] for f in build()["metrics"]["metrics"]}
        assert "orion_cache_lookups_total" in names

    def test_timings_are_read_from_the_metrics_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("orion_spans_total").inc(name="alpha")
        registry.counter("orion_span_seconds_total").inc(0.25, name="alpha")
        report = build(metrics_snapshot=registry.snapshot())
        assert report["timings"] == {"alpha": {"calls": 1, "seconds": 0.25}}


class TestValidate:
    def test_valid_report_has_no_errors(self, charged_registry):
        assert validate_bench_report(build()) == []

    def test_survives_disk_round_trip(self, tmp_path, charged_registry):
        path = write_report(build(), tmp_path / "report.json")
        assert validate_bench_report(load_report(path)) == []

    def test_wrong_schema_version(self, charged_registry):
        report = build()
        report["schema_version"] = 99
        assert any("schema_version" in e for e in validate_bench_report(report))

    def test_empty_kernels(self, charged_registry):
        report = build()
        report["kernels"] = []
        assert any("kernels" in e for e in validate_bench_report(report))

    def test_kernel_missing_timing_field(self, charged_registry):
        report = build()
        del report["kernels"][0]["total_cycles"]
        assert any("total_cycles" in e for e in validate_bench_report(report))

    def test_missing_cache_hit_rate(self, charged_registry):
        report = build()
        del report["cache"]["measurement"]["hit_rate"]
        assert any("hit_rate" in e for e in validate_bench_report(report))

    def test_missing_metrics_snapshot(self, charged_registry):
        report = build()
        report["metrics"] = {}
        assert any("metrics" in e for e in validate_bench_report(report))

    def test_absent_cache_metric_family_is_flagged(self):
        reset_registry()
        try:
            report = build()  # registry empty: no cache lookups recorded
        finally:
            reset_registry()
        assert any(
            "orion_cache_lookups_total" in e
            for e in validate_bench_report(report)
        )

    def test_non_object_report(self):
        assert validate_bench_report(["not", "a", "dict"]) == [
            "report is not a JSON object"
        ]


class TestWrite:
    def test_output_is_stable_json(self, tmp_path, charged_registry):
        a = write_report(build(), tmp_path / "a.json").read_text()
        b = write_report(build(), tmp_path / "b.json").read_text()
        assert a == b
        assert a.endswith("\n")


def _timed_report(kernels=None, **phases):
    return {
        "kernels": kernels
        or [
            {
                "name": "gaussian",
                "total_cycles": 1000,
                "final_version": "conservative warps=48",
            }
        ],
        "timings": {
            name: {"calls": 1, "seconds": seconds}
            for name, seconds in phases.items()
        },
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = _timed_report(tuning=4.0, measure=8.0)
        assert compare_reports(report, report) == []

    def test_uniform_machine_slowdown_passes(self):
        base = _timed_report(tuning=4.0, measure=8.0)
        # The whole box is 3x slower — normalized, nothing regressed.
        slow = _timed_report(tuning=12.0, measure=24.0)
        assert compare_reports(base, slow) == []

    def test_single_phase_regression_flagged(self):
        base = _timed_report(tuning=4.0, measure=8.0, realize=4.0)
        bad = _timed_report(tuning=4.0, measure=8.0, realize=12.0)
        problems = compare_reports(base, bad)
        assert len(problems) == 1
        assert "phase realize" in problems[0]

    def test_cycles_drift_is_exact(self):
        base = _timed_report()
        drifted = _timed_report(
            kernels=[
                {
                    "name": "gaussian",
                    "total_cycles": 1001,
                    "final_version": "conservative warps=48",
                }
            ]
        )
        problems = compare_reports(base, drifted)
        assert any("total_cycles" in p for p in problems)

    def test_small_phases_and_slack_ignore_jitter(self):
        base = _timed_report(tuning=4.0, blink=0.01)
        # blink is under min_seconds; tuning within the slack allowance.
        jittery = _timed_report(tuning=4.3, blink=0.05)
        assert compare_reports(base, jittery) == []

    def test_missing_timings_still_checks_kernels(self):
        base = {"kernels": [{"name": "k", "total_cycles": 5}]}
        cur = {"kernels": [{"name": "k", "total_cycles": 6}]}
        assert compare_reports(base, cur)
        cur["kernels"][0]["total_cycles"] = 5
        assert compare_reports(base, cur) == []


class TestStrategyFields:
    def test_report_carries_strategies(self, charged_registry):
        report = build(strategy="smem-spill")
        assert report["strategy"] == "smem-spill"
        (kernel,) = report["kernels"]
        # The fake final version has no strategy attribute: the builder
        # defaults it to the reference id rather than failing.
        assert kernel["strategy"] == "local-spill"
        assert validate_bench_report(report) == []

    def test_default_strategy_recorded(self, charged_registry):
        assert build()["strategy"] == "local-spill"

    def test_non_string_strategy_rejected(self, charged_registry):
        report = build()
        report["strategy"] = 7
        report["kernels"][0]["strategy"] = ["local-spill"]
        problems = validate_bench_report(report)
        assert any("strategy: not a string" in p for p in problems)
        assert any("kernels[0].strategy" in p for p in problems)

    def test_pre_strategy_reports_still_validate(self, charged_registry):
        report = build()
        del report["strategy"]
        del report["kernels"][0]["strategy"]
        assert validate_bench_report(report) == []

    def test_cross_strategy_compare_rejected(self):
        base = _timed_report()
        base["strategy"] = "local-spill"
        cur = _timed_report()
        cur["strategy"] = "smem-spill"
        problems = compare_reports(base, cur)
        assert any("not comparable" in p for p in problems)

    def test_winner_strategy_drift_flagged(self):
        base = _timed_report()
        base["kernels"][0]["strategy"] = "local-spill"
        cur = _timed_report()
        cur["kernels"][0]["strategy"] = "smem-spill"
        problems = compare_reports(base, cur)
        assert any("winning strategy changed" in p for p in problems)

    def test_strategy_absent_in_baseline_is_not_drift(self):
        # Comparing a new report against a pre-strategy baseline must
        # not invent problems.
        base = _timed_report()
        cur = _timed_report()
        cur["strategy"] = "local-spill"
        cur["kernels"][0]["strategy"] = "local-spill"
        assert compare_reports(base, cur) == []
