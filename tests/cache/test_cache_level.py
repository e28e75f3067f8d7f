import pytest

from repro.cache.kernel import KernelCacheLevel
from repro.util.errors import ConfigurationError


def small_cache(**kwargs):
    defaults = dict(
        name="L", capacity_bytes=4096, num_ways=4, line_size=64, replacement="lru"
    )
    defaults.update(kwargs)
    return KernelCacheLevel(**defaults)


class TestGeometry:
    def test_sets_derived_from_capacity(self):
        cache = small_cache()
        assert cache.num_sets == 4096 // (4 * 64)

    def test_rejects_indivisible_capacity(self):
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 1000, 3, 64)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            small_cache(replacement="rand")

    def test_rejects_unknown_indexing(self):
        with pytest.raises(ConfigurationError):
            small_cache(indexing="prime")


class TestAccessAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(100)
        cache.fill(100)
        assert cache.access(100)

    def test_fill_to_invalid_way_evicts_nothing(self):
        cache = small_cache()
        assert cache.fill(100) is None

    def test_eviction_returns_victim(self):
        cache = small_cache()
        set_size = cache.num_sets
        lines = [i * set_size for i in range(5)]  # all map to set 0
        for line in lines[:4]:
            cache.fill(line)
        evicted = cache.fill(lines[4])
        assert evicted is not None
        assert evicted.tag in lines[:4]

    def test_dirty_eviction_flagged(self):
        cache = small_cache()
        set_size = cache.num_sets
        cache.fill(0, is_write=True)
        for i in range(1, 5):
            cache.fill(i * set_size)
        assert cache.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = small_cache()
        cache.fill(7)
        cache.access(7, is_write=True)
        assert cache.invalidate(7) is True  # invalidate reports dirtiness

    def test_refill_of_resident_line_is_noop(self):
        cache = small_cache()
        cache.fill(9)
        assert cache.fill(9) is None
        assert cache.occupancy() == 1

    def test_capacity_never_exceeded(self):
        cache = small_cache()
        for line in range(1000):
            cache.fill(line)
        assert cache.occupancy() <= 4096 // 64

    def test_allowed_ways_respected(self):
        cache = small_cache()
        for line in range(0, 64 * cache.num_sets, cache.num_sets):
            cache.fill(line, allowed_ways=[1, 2])
        occupancy = cache.occupancy_by_way()
        assert occupancy[0] == 0
        assert occupancy[3] == 0


class TestInvalidateAndIntrospection:
    def test_invalidate_missing_line(self):
        assert small_cache().invalidate(123) is False

    def test_resident_lines(self):
        cache = small_cache()
        cache.fill(5)
        cache.fill(6)
        assert cache.resident_lines() == {5, 6}

    def test_mark_dirty(self):
        cache = small_cache()
        cache.fill(5)
        assert cache.mark_dirty(5) is True
        assert cache.mark_dirty(99) is False

    def test_sharers_tracking(self):
        cache = small_cache()
        cache.fill(5, sharer=1)
        cache.add_sharer(5, 3)
        assert cache.sharers_of(5) == (1 << 1) | (1 << 3)
        assert cache.sharers_of(99) == 0


class TestStats:
    def test_hit_miss_counting(self):
        cache = small_cache()
        cache.access(1)
        cache.fill(1)
        cache.access(1)
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_per_domain_counters(self):
        cache = small_cache()
        cache.access(1, domain=2)
        assert cache.stats.per_domain_misses[2] == 1
        assert cache.stats.per_domain_accesses[2] == 1

    def test_prefetch_usefulness(self):
        cache = small_cache()
        cache.fill(4, prefetch=True)
        cache.access(4)
        cache.access(4)
        assert cache.stats.prefetch_fills == 1
        assert cache.stats.prefetch_useful == 1  # counted once

    def test_snapshot_and_reset(self):
        cache = small_cache()
        cache.fill(1)
        snap = cache.stats.snapshot()
        assert snap["fills"] == 1
        cache.stats.reset()
        assert cache.stats.fills == 0
