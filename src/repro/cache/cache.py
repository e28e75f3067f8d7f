"""A generic set-associative, write-back cache level."""

from repro.cache.block import CacheLine
from repro.cache.indexing import HashedIndex, ModuloIndex
from repro.cache.replacement import PseudoLruTree, TrueLru
from repro.cache.stats import CacheStats
from repro.util.errors import ConfigurationError

_REPLACEMENT = {"lru": TrueLru, "plru": PseudoLruTree}
_INDEXING = {"mod": ModuloIndex, "hash": HashedIndex}


class CacheLevel:
    """One level of a write-back cache (L1, L2, or the LLC's storage).

    The level stores line *numbers* (byte address >> 6); the hierarchy is
    responsible for routing and inclusion. Victim selection can be
    restricted to a subset of ways via ``allowed_ways`` — the hook the
    partitioned LLC builds on.
    """

    def __init__(
        self,
        name,
        capacity_bytes,
        num_ways,
        line_size=64,
        replacement="lru",
        indexing="mod",
    ):
        if capacity_bytes % (num_ways * line_size):
            raise ConfigurationError(
                f"{name}: capacity {capacity_bytes} not divisible by "
                f"{num_ways} ways x {line_size}B lines"
            )
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.num_ways = num_ways
        self.line_size = line_size
        self.num_sets = capacity_bytes // (num_ways * line_size)
        if replacement not in _REPLACEMENT:
            raise ConfigurationError(f"unknown replacement policy {replacement!r}")
        if indexing not in _INDEXING:
            raise ConfigurationError(f"unknown indexing scheme {indexing!r}")
        self._indexer = _INDEXING[indexing](self.num_sets)
        self._sets = [
            [CacheLine() for _ in range(num_ways)] for _ in range(self.num_sets)
        ]
        self._policies = [
            _REPLACEMENT[replacement](num_ways) for _ in range(self.num_sets)
        ]
        # tag -> way per set, kept in sync on fill/invalidate, turning the
        # O(ways) presence scan into one dict probe.
        self._tag_index = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- lookup ----------------------------------------------------------

    def set_index(self, line_number):
        return self._indexer.index(line_number)

    def find(self, line_number):
        """Return (set_index, way) if the line is present, else (set, None)."""
        set_idx = self.set_index(line_number)
        return set_idx, self._tag_index[set_idx].get(line_number)

    def contains(self, line_number):
        return self.find(line_number)[1] is not None

    # -- access / fill / invalidate --------------------------------------

    def access(self, line_number, is_write=False, domain=0):
        """Probe for a line; returns True on hit (recency updated)."""
        set_idx, way = self.find(line_number)
        hit = way is not None
        self.stats.record_access(domain, hit)
        if hit:
            cl = self._sets[set_idx][way]
            self._policies[set_idx].touch(way)
            if is_write:
                cl.dirty = True
            if cl.prefetched and not cl.touched_after_prefetch:
                cl.touched_after_prefetch = True
                self.stats.prefetch_useful += 1
        return hit

    def fill(
        self,
        line_number,
        is_write=False,
        domain=0,
        allowed_ways=None,
        prefetch=False,
        sharer=None,
    ):
        """Insert a line, evicting if necessary.

        Returns the evicted ``CacheLine`` metadata (with its line number in
        ``tag``) or ``None`` if an invalid way absorbed the fill. If the
        line is already present the fill is a no-op returning ``None``.
        """
        set_idx, way = self.find(line_number)
        if way is not None:
            return None  # racing fill (e.g. prefetch landed first)

        cache_set = self._sets[set_idx]
        victim_way = None
        candidates = (
            range(self.num_ways) if allowed_ways is None else list(allowed_ways)
        )
        for w in candidates:
            # Range-guarded so junk allowed_ways reach the policy, which
            # raises the proper ValidationError (the kernel does the same).
            if 0 <= w < self.num_ways and not cache_set[w].valid:
                victim_way = w
                break
        evicted = None
        if victim_way is None:
            victim_way = self._policies[set_idx].victim(candidates)
            victim = cache_set[victim_way]
            evicted = CacheLine(
                tag=victim.tag,
                valid=True,
                dirty=victim.dirty,
                sharers=victim.sharers,
            )
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
            self._tag_index[set_idx].pop(victim.tag, None)

        cl = cache_set[victim_way]
        cl.tag = line_number
        cl.valid = True
        cl.dirty = is_write
        cl.sharers = (1 << sharer) if sharer is not None else 0
        cl.prefetched = prefetch
        cl.touched_after_prefetch = False
        self._tag_index[set_idx][line_number] = victim_way
        self.stats.fills += 1
        if prefetch:
            self.stats.prefetch_fills += 1
        self._policies[set_idx].touch(victim_way)
        return evicted

    def add_sharer(self, line_number, core):
        set_idx, way = self.find(line_number)
        if way is not None:
            self._sets[set_idx][way].sharers |= 1 << core

    def sharers_of(self, line_number):
        set_idx, way = self.find(line_number)
        if way is None:
            return 0
        return self._sets[set_idx][way].sharers

    def mark_dirty(self, line_number):
        """Mark a resident line dirty (inner-level writeback landing here)."""
        set_idx, way = self.find(line_number)
        if way is None:
            return False
        self._sets[set_idx][way].dirty = True
        return True

    def invalidate(self, line_number):
        """Drop a line if present; returns True if it was dirty."""
        set_idx, way = self.find(line_number)
        if way is None:
            return False
        cl = self._sets[set_idx][way]
        was_dirty = cl.dirty
        cl.reset()
        self._tag_index[set_idx].pop(line_number, None)
        self.stats.back_invalidations += 1
        return was_dirty

    # -- introspection -----------------------------------------------------

    def occupancy(self):
        """Number of valid lines currently held."""
        return sum(1 for s in self._sets for cl in s if cl.valid)

    def occupancy_by_way(self):
        """Valid-line count per way index (used by partitioning tests)."""
        counts = [0] * self.num_ways
        for cache_set in self._sets:
            for way, cl in enumerate(cache_set):
                if cl.valid:
                    counts[way] += 1
        return counts

    def resident_lines(self):
        """Set of line numbers currently cached (for inclusion checks)."""
        return {cl.tag for s in self._sets for cl in s if cl.valid}
