"""Property-based tests over the address-level cache structures.

The level properties run on :class:`KernelCacheLevel` with the reference
object model (``tests/_refcache.py``) in lockstep: every probe must hit
or miss alike in both, and every property must hold in both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.kernel import KernelCacheLevel
from repro.cache.llc import PartitionedLLC, WayMask

from .._refcache import CacheLevel, PseudoLruTree, TrueLru


@st.composite
def accesses(draw, max_line=4096):
    n = draw(st.integers(1, 300))
    return [draw(st.integers(0, max_line)) for _ in range(n)]


def level_pair(**kwargs):
    """The kernel level and a reference level of one 8 KB geometry."""
    return (
        KernelCacheLevel("x", 8192, 4, 64, **kwargs),
        CacheLevel("x", 8192, 4, 64, **kwargs),
    )


def probe_or_fill(levels, line):
    """Probe ``line`` on every level, filling on a miss; the levels must
    agree on hit or miss."""
    hits = {level.access(line) for level in levels}
    assert len(hits) == 1
    if not hits.pop():
        for level in levels:
            level.fill(line)


class TestReplacementProperties:
    @given(
        ways=st.integers(2, 16),
        touches=st.lists(st.integers(0, 15), min_size=1, max_size=100),
    )
    def test_plru_victim_always_in_range(self, ways, touches):
        plru = PseudoLruTree(ways)
        for way in touches:
            plru.touch(way % ways)
            assert 0 <= plru.victim() < ways

    @given(
        ways=st.integers(2, 16),
        mask_seed=st.integers(0, 2 ** 16 - 1),
        touches=st.lists(st.integers(0, 15), max_size=60),
    )
    def test_plru_masked_victim_always_in_mask(self, ways, mask_seed, touches):
        allowed = [w for w in range(ways) if (mask_seed >> w) & 1]
        if not allowed:
            allowed = [0]
        plru = PseudoLruTree(ways)
        for way in touches:
            plru.touch(way % ways)
        assert plru.victim(allowed) in allowed

    @given(
        ways=st.integers(1, 12),
        touches=st.lists(st.integers(0, 11), max_size=60),
    )
    def test_lru_victim_is_never_most_recent(self, ways, touches):
        lru = TrueLru(ways)
        last = None
        for way in touches:
            last = way % ways
            lru.touch(last)
        if ways > 1 and last is not None:
            assert lru.victim() != last


class TestCacheLevelProperties:
    @settings(max_examples=40, deadline=None)
    @given(lines=accesses())
    def test_occupancy_never_exceeds_capacity(self, lines):
        levels = level_pair(replacement="plru")
        capacity_lines = 8192 // 64
        for line in lines:
            probe_or_fill(levels, line)
            for cache in levels:
                assert cache.occupancy() <= capacity_lines

    @settings(max_examples=40, deadline=None)
    @given(lines=accesses())
    def test_fill_then_access_always_hits(self, lines):
        levels = level_pair()
        for line in lines:
            probe_or_fill(levels, line)
            for cache in levels:
                assert cache.access(line)

    @settings(max_examples=40, deadline=None)
    @given(lines=accesses())
    def test_stats_balance(self, lines):
        levels = level_pair()
        for line in lines:
            probe_or_fill(levels, line)
        for cache in levels:
            stats = cache.stats
            assert stats.hits + stats.misses == stats.accesses
            assert stats.fills >= cache.occupancy()
        assert levels[0].stats.snapshot() == levels[1].stats.snapshot()


class TestPartitionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        lines=accesses(),
        split=st.integers(1, 7),
    )
    def test_domains_never_fill_outside_their_mask(self, lines, split):
        llc = PartitionedLLC(capacity_bytes=64 * 1024, num_ways=8, num_domains=2)
        llc.set_mask(0, WayMask.contiguous(split, 0, 8))
        llc.set_mask(1, WayMask.contiguous(8 - split, split, 8))
        for i, line in enumerate(lines):
            domain = i % 2
            if not llc.access(line + domain * 100_000, domain=domain):
                llc.fill(line + domain * 100_000, domain=domain)
        # Inspect which ways hold which domain's lines: every line a
        # domain *filled* must be in its ways (hits don't move lines).
        for line in llc.storage.resident_lines():
            domain = 0 if line < 100_000 else 1
            assert llc.storage.find(line)[1] in llc.mask_of(domain).ways

    @settings(max_examples=30, deadline=None)
    @given(lines=accesses(), shrink_to=st.integers(1, 8))
    def test_mask_change_preserves_contents(self, lines, shrink_to):
        llc = PartitionedLLC(capacity_bytes=64 * 1024, num_ways=8, num_domains=2)
        for line in lines:
            if not llc.access(line, domain=0):
                llc.fill(line, domain=0)
        resident = llc.storage.resident_lines()
        llc.set_mask(0, WayMask.contiguous(shrink_to, 0, 8))
        assert llc.storage.resident_lines() == resident
