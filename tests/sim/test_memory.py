"""Cache and memory-subsystem model tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GTX680, TESLA_C2075, CacheConfig
from repro.isa.instructions import MemSpace
from repro.sim.memory import SetAssociativeCache
from tests.sim.reference_sm import MemorySubsystem


class TestCacheBasics:
    def test_first_access_misses_second_hits(self):
        cache = SetAssociativeCache(1024, 128, 4)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(64)  # same line

    def test_different_lines_are_distinct(self):
        cache = SetAssociativeCache(1024, 128, 4)
        cache.access(0)
        assert not cache.access(128)

    def test_accounting_conserves_accesses(self):
        cache = SetAssociativeCache(2048, 128, 4)
        for address in range(0, 131072, 128):
            cache.access(address)
        assert cache.hits + cache.misses == cache.accesses == 1024

    def test_lru_eviction(self):
        # Direct-mapped-ish tiny cache without hashing: 2 lines, 2-way,
        # one set.
        cache = SetAssociativeCache(256, 128, 2, hash_sets=False)
        cache.access(0)
        cache.access(128)
        cache.access(0)  # refresh line 0
        cache.access(256)  # evicts LRU = line 1
        assert cache.access(0)
        assert not cache.access(128)

    def test_capacity_thrash(self):
        cache = SetAssociativeCache(1024, 128, 8)  # 8 lines
        addresses = [i * 128 for i in range(16)]
        for _ in range(3):
            for address in addresses:
                cache.access(address)
        # Cyclic over 2x capacity with LRU: essentially all misses.
        assert cache.hits == 0

    def test_working_set_that_fits_hits(self):
        cache = SetAssociativeCache(2048, 128, 16)  # 16 lines, 1 set
        addresses = [i * 128 for i in range(8)]
        for _ in range(4):
            for address in addresses:
                cache.access(address)
        assert cache.hits == 3 * 8

    def test_hashing_spreads_power_of_two_strides(self):
        """Strided GPU addresses must not collapse onto one set."""
        plain = SetAssociativeCache(16 * 1024, 128, 4, hash_sets=False)
        hashed = SetAssociativeCache(16 * 1024, 128, 4, hash_sets=True)
        addresses = [w * 4096 for w in range(24)]
        for _ in range(3):
            for address in addresses:
                plain.access(address)
                hashed.access(address)
        # 24 lines easily fit a 128-line cache — but only when hashed.
        assert hashed.hits > plain.hits

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 128, 4)
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 128, 0)

    @given(
        seed=st.integers(min_value=0, max_value=9999),
        size=st.sampled_from([1024, 4096, 16384]),
    )
    @settings(max_examples=20, deadline=None)
    def test_hits_plus_misses_invariant(self, seed, size):
        import random

        rng = random.Random(seed)
        cache = SetAssociativeCache(size, 128, 4)
        n = 500
        for _ in range(n):
            cache.access(rng.randrange(0, 1 << 20))
        assert cache.hits + cache.misses == n


class TestMemorySubsystem:
    def test_shared_is_fixed_latency(self):
        mem = MemorySubsystem(TESLA_C2075)
        done = mem.request(0, MemSpace.SHARED, now=100)
        assert done == 100 + TESLA_C2075.shared_latency
        assert mem.stats.shared_accesses == 1

    def test_cold_global_goes_to_dram(self):
        mem = MemorySubsystem(GTX680)
        done = mem.request(1 << 20, MemSpace.GLOBAL, now=0)
        assert done >= GTX680.dram_latency
        assert mem.stats.dram_transactions == 1

    def test_l2_hit_is_cheaper_than_dram(self):
        mem = MemorySubsystem(GTX680)
        first = mem.request(0, MemSpace.GLOBAL, now=0)
        second = mem.request(0, MemSpace.GLOBAL, now=first)
        assert second - first == GTX680.l2_latency

    def test_fermi_l1_caches_global(self):
        mem = MemorySubsystem(TESLA_C2075)
        mem.request(0, MemSpace.GLOBAL, now=0)
        mem.request(0, MemSpace.GLOBAL, now=1000)
        assert mem.stats.l1_hits == 1

    def test_kepler_l1_skips_global_but_caches_local(self):
        mem = MemorySubsystem(GTX680)
        mem.request(0, MemSpace.GLOBAL, now=0)
        mem.request(0, MemSpace.GLOBAL, now=1000)
        assert mem.stats.l1_hits == 0
        mem.request(4096, MemSpace.LOCAL, now=2000)
        mem.request(4096, MemSpace.LOCAL, now=3000)
        assert mem.stats.l1_hits == 1

    def test_dram_bandwidth_serialises(self):
        """Back-to-back misses space out by the service interval."""
        mem = MemorySubsystem(GTX680)
        first = mem.request(0 << 20, MemSpace.GLOBAL, now=0)
        second = mem.request(1 << 20, MemSpace.GLOBAL, now=0)
        assert second - first == GTX680.dram_service_interval

    def test_mshr_limit_backpressures(self):
        arch = GTX680.with_overrides(max_outstanding_memory=4)
        mem = MemorySubsystem(arch)
        for i in range(8):
            mem.request((i + 1) << 20, MemSpace.GLOBAL, now=0)
        assert mem.stats.stalled_requests > 0

    def test_cache_config_changes_l1_size(self):
        small = MemorySubsystem(TESLA_C2075, CacheConfig.SMALL_CACHE)
        large = MemorySubsystem(TESLA_C2075, CacheConfig.LARGE_CACHE)
        assert large.l1.num_sets * large.l1.associativity > (
            small.l1.num_sets * small.l1.associativity
        )
