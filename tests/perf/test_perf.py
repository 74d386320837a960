"""Unit tests for the perf subsystem: compile cache and phase report."""

import os

import pytest

from repro.arch import GTX680, TESLA_C2075
from repro.compiler.pipeline import CompileOptions
from repro.harness.reporting import format_phase_report
from repro.obs.metrics import MetricsRegistry
from repro.perf.cache import (
    CompileCache,
    compile_cache_key,
    default_cache,
    reset_default_cache,
)


class TestCacheKey:
    def test_stable_for_identical_inputs(self):
        options = CompileOptions(arch=GTX680)
        assert compile_cache_key(b"mod", "k", options) == compile_cache_key(
            b"mod", "k", options
        )

    def test_sensitive_to_every_input(self):
        base = compile_cache_key(b"mod", "k", CompileOptions(arch=GTX680))
        assert base != compile_cache_key(b"mod2", "k", CompileOptions(arch=GTX680))
        assert base != compile_cache_key(b"mod", "k2", CompileOptions(arch=GTX680))
        assert base != compile_cache_key(
            b"mod", "k", CompileOptions(arch=TESLA_C2075)
        )
        assert base != compile_cache_key(
            b"mod", "k", CompileOptions(arch=GTX680, block_size=128)
        )
        assert base != compile_cache_key(
            b"mod", "k", CompileOptions(arch=GTX680, max_versions=3)
        )

    def test_boundary_confusion_resistant(self):
        """kernel/options/module fields cannot bleed into each other."""
        a = compile_cache_key(b"xy", "k", CompileOptions(arch=GTX680))
        b = compile_cache_key(b"y", "kx", CompileOptions(arch=GTX680))
        assert a != b


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = CompileCache()
        assert cache.lookup("aa" * 32) is None
        cache.store("aa" * 32, b"payload")
        assert cache.lookup("aa" * 32) == b"payload"
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_clear_resets(self):
        cache = CompileCache()
        cache.store("bb" * 32, b"x")
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup("bb" * 32) is None
        assert cache.stats.misses == 1


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        key = "cc" * 32
        CompileCache(tmp_path).store(key, b"payload")
        fresh = CompileCache(tmp_path)
        assert fresh.lookup(key) == b"payload"
        assert fresh.stats.disk_hits == 1
        # Promoted to memory: a second lookup does not touch disk.
        assert fresh.lookup(key) == b"payload"
        assert fresh.stats.memory_hits == 1

    def test_unwritable_directory_degrades_silently(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = CompileCache(blocked / "sub")
        cache.store("dd" * 32, b"payload")  # disk write fails, no raise
        assert cache.lookup("dd" * 32) == b"payload"  # memory tier intact

    def test_corrupted_entry_is_a_miss_not_an_error(self, tmp_path):
        """A torn/garbled disk entry must recompile, then self-heal."""
        from repro.compiler.pipeline import compile_binary
        from repro.isa.encoding import encode_module
        from tests.helpers import straight_line_kernel

        data = encode_module(straight_line_kernel())
        options = CompileOptions(arch=GTX680, block_size=32)
        cache = CompileCache(tmp_path)
        good = compile_binary(data, "k", options, cache=cache).to_bytes()
        [entry] = [p for p in tmp_path.rglob("*.ormv")]
        entry.write_bytes(b"garbage")
        fresh = CompileCache(tmp_path)  # hits disk, payload undecodable
        again = compile_binary(data, "k", options, cache=fresh).to_bytes()
        assert again == good
        healed = CompileCache(tmp_path)  # recompile overwrote the entry
        assert compile_binary(data, "k", options, cache=healed).to_bytes() == good
        assert healed.stats.disk_hits == 1

    def test_default_cache_reads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORION_CACHE_DIR", str(tmp_path))
        reset_default_cache()
        try:
            assert default_cache().directory == tmp_path
        finally:
            reset_default_cache()


def charged_spans(*phases):
    """A registry snapshot charged the way spans charge it."""
    registry = MetricsRegistry()
    for name, seconds in phases:
        registry.counter("orion_spans_total").inc(name=name)
        registry.counter("orion_span_seconds_total").inc(seconds, name=name)
    return registry.snapshot()


class TestPhaseReport:
    def test_renders_timers_and_cache_counters(self):
        snapshot = charged_spans(("front_end", 0.5), ("tuning", 2.0))
        cache = CompileCache()
        cache.store("ee" * 32, b"x")
        cache.lookup("ee" * 32)
        report = format_phase_report(snapshot, cache.stats)
        assert "tuning" in report
        assert "hit rate 100.0%" in report
        assert report.index("tuning") < report.index("front_end")  # sorted

    def test_empty_timers_render(self):
        report = format_phase_report(charged_spans(), CompileCache().stats)
        assert "total" in report
