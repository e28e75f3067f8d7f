"""The reference cache model the kernel level is checked against.

:class:`CacheLevel` is the textbook set-associative, write-back level: a
``CacheLine`` object per way and one replacement-policy object per set
(:class:`TrueLru`'s recency list or :class:`PseudoLruTree`'s direction
bits). Victim selection takes an ``allowed_ways`` subset, the hook way
partitioning builds on: the mask limits only *replacement* (paper
Section 2.1). It shares no code with
:class:`~repro.cache.kernel.KernelCacheLevel` beyond the index functions
and the stats record, so the lockstep tests that hold the two equal
step by step are an independent check of writes, dirty write-backs,
prefetch flags, sharers, prefetchers-on walks, a true-LRU LLC and hashed
inner levels — the behaviour the native kernels do not model.

:func:`reference_hierarchy` builds a
:class:`~repro.cache.hierarchy.CacheHierarchy` and swaps a reference
level of the same geometry into every L1, L2 and the LLC storage.
"""

from repro.cache.block import CacheLine
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.indexing import _INDEXING
from repro.cache.stats import CacheStats
from repro.util.errors import ConfigurationError, ValidationError


class TrueLru:
    """Exact LRU over one cache set.

    Maintains a recency list (most-recent first). Used by small inner
    caches and as a reference implementation in tests.
    """

    def __init__(self, num_ways):
        if num_ways < 1:
            raise ValidationError("a set needs at least one way")
        self.num_ways = num_ways
        self._recency = list(range(num_ways))

    def touch(self, way):
        """Mark ``way`` most recently used."""
        self._recency.remove(way)
        self._recency.insert(0, way)

    def victim(self, allowed_ways=None):
        """Return the least-recently-used way among ``allowed_ways``."""
        if allowed_ways is None:
            return self._recency[-1]
        allowed = set(allowed_ways)
        if not allowed:
            raise ValidationError("victim selection requires at least one allowed way")
        for way in reversed(self._recency):
            if way in allowed:
                return way
        raise ValidationError("allowed ways are outside this set")

    def recency_order(self):
        """Most-recent-first order; exposed for tests."""
        return list(self._recency)


class PseudoLruTree:
    """Tree-based pseudo-LRU (the policy used by Sandy Bridge's LLC).

    A binary tree of direction bits covers the ways (padded to a power of
    two). On a touch, bits along the path are set to point *away* from the
    touched way; the victim walk follows the bits. When a subtree contains
    no allowed (or no existing) way, the walk detours to the other side —
    this is exactly how masked replacement composes with PLRU in hardware.
    """

    def __init__(self, num_ways):
        if num_ways < 1:
            raise ValidationError("a set needs at least one way")
        self.num_ways = num_ways
        self._leaves = 1
        while self._leaves < num_ways:
            self._leaves *= 2
        # Internal nodes of a complete binary tree, root at index 1.
        self._bits = [0] * self._leaves

    def touch(self, way):
        """Update direction bits so the walk points away from ``way``."""
        if not 0 <= way < self.num_ways:
            raise ValidationError(f"way {way} out of range")
        node, lo, hi = 1, 0, self._leaves
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                self._bits[node] = 1  # point right, away from the touched way
                node, hi = 2 * node, mid
            else:
                self._bits[node] = 0  # point left
                node, lo = 2 * node + 1, mid
        return self

    def victim(self, allowed_ways=None):
        """Walk the tree to a victim way, constrained to ``allowed_ways``."""
        if allowed_ways is None:
            allowed = set(range(self.num_ways))
        else:
            allowed = {w for w in allowed_ways if 0 <= w < self.num_ways}
        if not allowed:
            raise ValidationError("victim selection requires at least one allowed way")

        node, lo, hi = 1, 0, self._leaves
        while hi - lo > 1:
            mid = (lo + hi) // 2
            left_ok = any(lo <= w < mid for w in allowed)
            right_ok = any(mid <= w < hi for w in allowed)
            go_right = self._bits[node] == 1
            if go_right and not right_ok:
                go_right = False
            elif not go_right and not left_ok:
                go_right = True
            if go_right:
                node, lo = 2 * node + 1, mid
            else:
                node, hi = 2 * node, mid
        return lo

    def bits(self):
        """The raw direction bits; exposed for tests."""
        return list(self._bits)


_REPLACEMENT = {"lru": TrueLru, "plru": PseudoLruTree}


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


def reference_level(level):
    """A reference :class:`CacheLevel` with ``level``'s geometry, policy
    and indexing (``level`` is a kernel level)."""
    return CacheLevel(
        level.name,
        level.capacity_bytes,
        level.num_ways,
        level.line_size,
        replacement="lru" if level._is_lru else "plru",
        indexing=level.indexing,
    )


def reference_hierarchy(**geometry):
    """A :class:`CacheHierarchy` built from ``geometry`` whose L1s, L2s
    and LLC storage are reference levels."""
    hierarchy = CacheHierarchy(**geometry)
    hierarchy.l1 = [reference_level(level) for level in hierarchy.l1]
    hierarchy.l2 = [reference_level(level) for level in hierarchy.l2]
    hierarchy.llc.storage = reference_level(hierarchy.llc.storage)
    return hierarchy
