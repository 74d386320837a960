"""Measurement-cache tests: key sensitivity, tiers, degradation."""

import pytest

from repro.perf.measure_cache import MeasurementCache, measurement_cache_key
from repro.sim.trace import MemoryTraits


def key_with(**overrides):
    """The canonical key with individual components overridden."""
    base = dict(
        version_hash="abc123",
        backend_name="timing",
        arch_name="GTX680",
        grid_blocks=64,
        block_size=256,
        params={0: 7},
        cache_config="small_cache",
        traits=MemoryTraits(),
        ilp=1.0,
        max_events_per_warp=6000,
        forced_warps=None,
    )
    base.update(overrides)
    return measurement_cache_key(**base)


class TestKeySensitivity:
    def test_stable_for_identical_inputs(self):
        assert key_with() == key_with()

    @pytest.mark.parametrize(
        "override",
        [
            {"version_hash": "def456"},
            {"backend_name": "analytical"},
            {"arch_name": "Tesla C2075"},
            {"grid_blocks": 65},
            {"block_size": 128},
            {"params": {0: 8}},
            {"params": {}},
            {"cache_config": "large_cache"},
            {"traits": MemoryTraits(global_lane_stride=128)},
            {"ilp": 2.0},
            {"max_events_per_warp": 3000},
            {"forced_warps": 16},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_every_component_is_load_bearing(self, override):
        assert key_with(**override) != key_with()

    def test_param_order_irrelevant(self):
        assert key_with(params={0: 1, 4: 2}) == key_with(params={4: 2, 0: 1})


class TestMemoryTier:
    def test_round_trip(self):
        cache = MeasurementCache()
        payload = {"backend": "timing", "cycles": 99, "energy": None, "stats": {}}
        key = key_with()
        assert cache.get(key) is None
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert len(cache) == 1

    def test_stats_counters(self):
        cache = MeasurementCache()
        key = key_with()
        cache.get(key)
        cache.put(key, {"cycles": 1})
        cache.get(key)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_clear_drops_entries_and_counters(self):
        cache = MeasurementCache()
        cache.put(key_with(), {"cycles": 1})
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key_with()) is None
        assert cache.stats.hits == 0


class TestDiskTier:
    def test_shared_directory_across_instances(self, tmp_path):
        writer = MeasurementCache(tmp_path)
        key = key_with()
        writer.put(key, {"cycles": 42, "backend": "timing"})
        reader = MeasurementCache(tmp_path)
        assert reader.get(key) == {"cycles": 42, "backend": "timing"}
        assert reader.stats.disk_hits == 1

    def test_env_var_enables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORION_MEASURE_CACHE_DIR", str(tmp_path))
        cache = MeasurementCache()
        assert cache.directory is not None
        cache.put(key_with(), {"cycles": 1})
        assert any(tmp_path.rglob("*"))

    def test_no_env_means_memory_only(self, monkeypatch):
        monkeypatch.delenv("ORION_MEASURE_CACHE_DIR", raising=False)
        assert MeasurementCache().directory is None

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        writer = MeasurementCache(tmp_path)
        key = key_with()
        writer._store.store(key, b"this is not json")
        reader = MeasurementCache(tmp_path)
        assert reader.get(key) is None
