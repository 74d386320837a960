"""Full-suite accelerator identity: ``ORION_ACCEL=off`` vs ``numpy``.

``ORION_ACCEL`` selects only the matcher (LAPJV or the pure
Kuhn–Munkres solver); the timing simulator has one path under every
mode.  The acceptance bar is not "close enough" — it is *byte
identity*.  This module drives the entire benchmark suite end-to-end
(fresh compile cache per mode, so the matcher seam inside register
allocation is exercised) under both modes and asserts that every
``MeasurementResult`` payload and every bench-report kernel row
serializes to exactly the same JSON bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.arch import GTX680
from repro.harness.experiments import bench_suite
from repro.obs.report import build_bench_report
from repro.perf.cache import reset_default_cache
from repro.runtime.engine import ExecutionEngine
from repro.runtime.telemetry import InMemorySink, TelemetryHub

pytest.importorskip("numpy")


class _RecordingBackend:
    """Wraps a backend; keeps every result payload by request signature."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.payloads: dict[str, str] = {}

    def measure(self, request):
        result = self.inner.measure(request)
        sig = "|".join(
            str(part)
            for part in (
                request.version.label,
                request.launch.grid_blocks,
                request.launch.block_size,
                sorted(request.launch.params.items()),
                request.forced_warps,
            )
        )
        self.payloads[sig] = json.dumps(result.to_payload(), sort_keys=True)
        return result


def _run_suite(mode: str, monkeypatch, tmp_path):
    """The whole benchmark suite under one ``ORION_ACCEL`` mode.

    A per-mode compile-cache directory forces both modes through a full
    compile (allocator + matcher included), not just re-measurement of
    binaries the other mode built.
    """
    monkeypatch.setenv("ORION_ACCEL", mode)
    monkeypatch.setenv("ORION_CACHE_DIR", str(tmp_path / f"compile-{mode}"))
    reset_default_cache()
    try:
        engine = ExecutionEngine(
            GTX680, telemetry=TelemetryHub(InMemorySink())
        )
        recorder = _RecordingBackend(engine.backend)
        engine.backend = recorder
        engine.pool.backend = recorder
        rows = bench_suite(GTX680, suite_engine=engine, jobs=1)
        report = build_bench_report(
            GTX680.name,
            recorder.name,
            rows,
            engine.cache.stats,
            metrics_snapshot={"metrics": []},
        )
    finally:
        reset_default_cache()
    kernels = json.dumps(report["kernels"], sort_keys=True)
    return kernels, recorder.payloads


def test_full_suite_byte_identical_across_accel_modes(
    monkeypatch, tmp_path
):
    off_kernels, off_results = _run_suite("off", monkeypatch, tmp_path)
    acc_kernels, acc_results = _run_suite("numpy", monkeypatch, tmp_path)
    # Bench outputs: every kernel row, serialized, byte for byte.
    assert off_kernels == acc_kernels
    # MeasurementResults: same requests measured, same payload bytes.
    assert sorted(off_results) == sorted(acc_results)
    for sig, payload in off_results.items():
        assert acc_results[sig] == payload, f"diverged on {sig}"
    assert off_results  # the suite really measured something
