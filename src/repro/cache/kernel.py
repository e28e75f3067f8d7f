"""Flat-array set-associative simulation kernel.

:class:`KernelCacheLevel` is the one cache level: the L1s, L2s and LLC
storage of every :class:`~repro.cache.hierarchy.CacheHierarchy`. It
keeps tag, state, and recency information in flat contiguous buffers:

- presence is one per-set ``tag -> way`` dict probe instead of a linear
  way scan;
- valid/dirty/prefetched flags are per-set bitmasks, sharers and tags
  are flat integer arrays;
- true-LRU recency is a monotonically increasing touch stamp (victim =
  minimum stamp among allowed ways, exactly the tail of a recency
  list);
- tree-PLRU touches collapse to two precomputed bit masks per way
  (the touch path through the tree is fixed per way), and the victim
  walk tests subtree membership with range bitmasks;
- hashed set indices are memoized (the XOR fold is the only per-access
  loop left otherwise).

``tests/_refcache.py`` keeps the textbook object model (a ``CacheLine``
per way, a recency list or a PLRU bit tree per set) as the reference:
``tests/cache/test_kernel.py`` holds this level to it step by step —
same hits, same victim choices, same evictions and stats — for LRU and
PLRU, modulo and hashed indexing, with and without way masks.
"""

from dataclasses import dataclass

from repro.cache.block import CacheLine
from repro.cache.indexing import _INDEXING
from repro.cache.stats import CacheStats
from repro.util.errors import ConfigurationError, ValidationError

_INDEX_MEMO_CAP = 1 << 20  # bound the hashed-index memo on huge footprints


class KernelCacheLevel:
    """One cache level backed by flat arrays (see module docstring)."""

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
        if replacement not in ("lru", "plru"):
            raise ConfigurationError(f"unknown replacement policy {replacement!r}")
        if indexing not in _INDEXING:
            raise ConfigurationError(f"unknown indexing scheme {indexing!r}")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.num_ways = num_ways
        self.line_size = line_size
        self.num_sets = capacity_bytes // (num_ways * line_size)
        self.indexing = indexing
        self._indexer = _INDEXING[indexing](self.num_sets)
        self._is_lru = replacement == "lru"
        self._full_mask = (1 << num_ways) - 1

        num_sets, W = self.num_sets, num_ways
        self._tags = [-1] * (num_sets * W)
        self._sharers = [0] * (num_sets * W)
        self._valid = [0] * num_sets
        self._dirty = [0] * num_sets
        self._prefetched = [0] * num_sets
        self._touched_pf = [0] * num_sets
        self._lookup = [dict() for _ in range(num_sets)]

        if self._is_lru:
            # Stamp ordering replicates a true-LRU recency list
            # [0, 1, ..., W-1] (way 0 most recent): higher stamp = more
            # recent, stamps stay unique so victim choice is unambiguous.
            self._stamp = [0] * (num_sets * W)
            for s in range(num_sets):
                base = s * W
                for w in range(W):
                    self._stamp[base + w] = W - w
            self._clock = W + 1
        else:
            leaves = 1
            while leaves < W:
                leaves *= 2
            self._leaves = leaves
            self._plru = [0] * num_sets
            # The touch path through the tree is fixed per way: precompute
            # the bits it sets and clears so a touch is two bit ops.
            set_masks, clear_invs = [], []
            for way in range(W):
                node, lo, hi = 1, 0, leaves
                set_bits = clear_bits = 0
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if way < mid:
                        set_bits |= 1 << node  # point right, away from way
                        node, hi = 2 * node, mid
                    else:
                        clear_bits |= 1 << node  # point left
                        node, lo = 2 * node + 1, mid
                set_masks.append(set_bits)
                clear_invs.append(~clear_bits)
            self._plru_set = set_masks
            self._plru_clear_inv = clear_invs
            # Static victim-walk tables: per tree node, the way-bitmask of
            # its left and right subtrees (heap order, root at index 1;
            # leaf node n corresponds to way n - leaves).
            left_masks = [0] * (2 * leaves)
            right_masks = [0] * (2 * leaves)

            def build(node, lo, hi):
                if hi - lo <= 1:
                    return
                mid = (lo + hi) // 2
                left_masks[node] = (1 << mid) - (1 << lo)
                right_masks[node] = (1 << hi) - (1 << mid)
                build(2 * node, lo, mid)
                build(2 * node + 1, mid, hi)

            build(1, 0, leaves)
            self._plru_left = left_masks
            self._plru_right = right_masks

        if indexing == "mod":
            self._mod_mask = self.num_sets - 1
            self._index_memo = None
        else:
            self._mod_mask = -1
            self._index_memo = {}
        self.stats = CacheStats()

    # -- lookup ----------------------------------------------------------

    def set_index(self, line_number):
        if self._mod_mask >= 0:
            return line_number & self._mod_mask
        memo = self._index_memo
        idx = memo.get(line_number)
        if idx is None:
            idx = self._indexer.index(line_number)
            if len(memo) >= _INDEX_MEMO_CAP:
                memo.clear()
            memo[line_number] = idx
        return idx

    def find(self, line_number):
        """Return (set_index, way) if the line is present, else (set, None)."""
        set_idx = self.set_index(line_number)
        return set_idx, self._lookup[set_idx].get(line_number)

    def contains(self, line_number):
        set_idx = self.set_index(line_number)
        return line_number in self._lookup[set_idx]

    # -- access / fill / invalidate --------------------------------------

    def _touch(self, set_idx, way):
        if self._is_lru:
            self._stamp[set_idx * self.num_ways + way] = self._clock
            self._clock += 1
        else:
            self._plru[set_idx] = (
                self._plru[set_idx] | self._plru_set[way]
            ) & self._plru_clear_inv[way]

    def access(self, line_number, is_write=False, domain=0):
        """Probe for a line; returns True on hit (recency updated).

        The body inlines :meth:`set_index`, the recency touch, and
        ``CacheStats.record_access`` — this is the hottest path in the
        address-level engine.
        """
        if self._mod_mask >= 0:
            set_idx = line_number & self._mod_mask
        else:
            memo = self._index_memo
            set_idx = memo.get(line_number)
            if set_idx is None:
                set_idx = self._indexer.index(line_number)
                if len(memo) >= _INDEX_MEMO_CAP:
                    memo.clear()
                memo[line_number] = set_idx
        way = self._lookup[set_idx].get(line_number)
        stats = self.stats
        stats.accesses += 1
        per_access = stats.per_domain_accesses
        per_access[domain] = per_access.get(domain, 0) + 1
        if way is None:
            stats.misses += 1
            per_miss = stats.per_domain_misses
            per_miss[domain] = per_miss.get(domain, 0) + 1
            return False
        stats.hits += 1
        if self._is_lru:
            self._stamp[set_idx * self.num_ways + way] = self._clock
            self._clock += 1
        else:
            plru = self._plru
            plru[set_idx] = (
                plru[set_idx] | self._plru_set[way]
            ) & self._plru_clear_inv[way]
        if is_write:
            self._dirty[set_idx] |= 1 << way
        prefetched = self._prefetched[set_idx]
        if prefetched:
            bit = 1 << way
            if prefetched & bit and not self._touched_pf[set_idx] & bit:
                self._touched_pf[set_idx] |= bit
                stats.prefetch_useful += 1
        return True

    def _victim(self, set_idx, candidates):
        """The replacement victim among ``candidates`` (every way when
        ``None``); an empty or out-of-range candidate list raises."""
        W = self.num_ways
        if self._is_lru:
            if candidates is not None and not candidates:
                raise ValidationError(
                    "victim selection requires at least one allowed way"
                )
            base = set_idx * W
            stamps = self._stamp
            best_way, best_stamp = None, None
            for w in range(W) if candidates is None else candidates:
                if 0 <= w < W:
                    stamp = stamps[base + w]
                    if best_stamp is None or stamp < best_stamp:
                        best_way, best_stamp = w, stamp
            if best_way is None:
                raise ValidationError("allowed ways are outside this set")
            return best_way
        if candidates is None:
            allowed_mask = self._full_mask
        else:
            allowed_mask = 0
            for w in candidates:
                if 0 <= w < W:
                    allowed_mask |= 1 << w
        if not allowed_mask:
            raise ValidationError("victim selection requires at least one allowed way")
        return self._plru_victim(self._plru[set_idx], allowed_mask)

    def _plru_victim(self, bits, allowed_mask):
        """The tree-PLRU victim way from tree state ``bits``, steered
        away from subtrees that hold no way in ``allowed_mask``."""
        leaves = self._leaves
        left_masks, right_masks = self._plru_left, self._plru_right
        node = 1
        while node < leaves:
            go_right = (bits >> node) & 1
            if go_right:
                if not allowed_mask & right_masks[node]:
                    go_right = 0
            elif not allowed_mask & left_masks[node]:
                go_right = 1
            node = 2 * node + 1 if go_right else 2 * node
        return node - leaves

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
        if self._mod_mask >= 0:
            set_idx = line_number & self._mod_mask
        else:
            memo = self._index_memo
            set_idx = memo.get(line_number)
            if set_idx is None:
                set_idx = self._indexer.index(line_number)
                if len(memo) >= _INDEX_MEMO_CAP:
                    memo.clear()
                memo[line_number] = set_idx
        lookup = self._lookup[set_idx]
        if line_number in lookup:
            return None  # racing fill (e.g. prefetch landed first)

        W = self.num_ways
        stats = self.stats
        valid = self._valid[set_idx]
        victim_way = None
        if allowed_ways is None:
            candidates = None
            if valid != self._full_mask:
                invalid = ~valid & self._full_mask
                victim_way = (invalid & -invalid).bit_length() - 1
        else:
            candidates = (
                allowed_ways
                if isinstance(allowed_ways, (list, tuple))
                else list(allowed_ways)
            )
            for w in candidates:
                if 0 <= w < W and not (valid >> w) & 1:
                    victim_way = w
                    break

        evicted = None
        if victim_way is None:
            victim_way = self._victim(set_idx, candidates)
            base = set_idx * W + victim_way
            bit = 1 << victim_way
            was_dirty = bool(self._dirty[set_idx] & bit)
            old_tag = self._tags[base]
            evicted = CacheLine(
                tag=old_tag,
                valid=True,
                dirty=was_dirty,
                sharers=self._sharers[base],
            )
            stats.evictions += 1
            if was_dirty:
                stats.writebacks += 1
            del lookup[old_tag]
        else:
            base = set_idx * W + victim_way
            bit = 1 << victim_way

        self._tags[base] = line_number
        self._valid[set_idx] = valid | bit
        if is_write:
            self._dirty[set_idx] |= bit
        else:
            self._dirty[set_idx] &= ~bit
        self._sharers[base] = (1 << sharer) if sharer is not None else 0
        if prefetch:
            self._prefetched[set_idx] |= bit
            stats.prefetch_fills += 1
        else:
            self._prefetched[set_idx] &= ~bit
        self._touched_pf[set_idx] &= ~bit
        lookup[line_number] = victim_way
        stats.fills += 1
        if self._is_lru:
            self._stamp[base] = self._clock
            self._clock += 1
        else:
            plru = self._plru
            plru[set_idx] = (
                plru[set_idx] | self._plru_set[victim_way]
            ) & self._plru_clear_inv[victim_way]
        return evicted

    def add_sharer(self, line_number, core):
        set_idx, way = self.find(line_number)
        if way is not None:
            self._sharers[set_idx * self.num_ways + way] |= 1 << core

    def sharers_of(self, line_number):
        set_idx, way = self.find(line_number)
        if way is None:
            return 0
        return self._sharers[set_idx * self.num_ways + way]

    def mark_dirty(self, line_number):
        """Mark a resident line dirty (inner-level writeback landing here)."""
        set_idx, way = self.find(line_number)
        if way is None:
            return False
        self._dirty[set_idx] |= 1 << way
        return True

    def invalidate(self, line_number):
        """Drop a line if present; returns True if it was dirty."""
        set_idx = self.set_index(line_number)
        way = self._lookup[set_idx].pop(line_number, None)
        if way is None:
            return False
        bit = 1 << way
        was_dirty = bool(self._dirty[set_idx] & bit)
        self._valid[set_idx] &= ~bit
        self._dirty[set_idx] &= ~bit
        self._prefetched[set_idx] &= ~bit
        self._touched_pf[set_idx] &= ~bit
        base = set_idx * self.num_ways + way
        self._tags[base] = -1
        self._sharers[base] = 0
        self.stats.back_invalidations += 1
        return was_dirty

    # -- introspection -----------------------------------------------------

    def occupancy(self):
        """Number of valid lines currently held."""
        return sum(len(lookup) for lookup in self._lookup)

    def occupancy_by_way(self):
        """Valid-line count per way index (used by partitioning tests)."""
        counts = [0] * self.num_ways
        for valid in self._valid:
            while valid:
                low = valid & -valid
                counts[low.bit_length() - 1] += 1
                valid ^= low
        return counts

    def resident_lines(self):
        """Set of line numbers currently cached (for inclusion checks)."""
        resident = set()
        for lookup in self._lookup:
            resident.update(lookup)
        return resident


# The native kernels' recency tables and LLC tree geometry, as the
# arrays they read: pure functions of a level's geometry, built once per
# process.
_TABLES = {}


# (7 - k)! for k = 0..7: the weight of Lehmer digit k of an 8-way order.
_LEHMER8 = (5040, 720, 120, 24, 6, 2, 1, 1)


def _lru8_tables():
    """8-way true LRU as a finite state machine: per-set recency is one
    of 8! = 40320 orders (most recent way first), numbered by
    lexicographic rank, and touch and victim are table lookups.
    Returns the int32 ``touch`` (state x way) and ``fill`` (victim way
    in the low 3 bits, post-fill state above them) tables."""
    tables = _TABLES.get("lru8")
    if tables is None:
        import numpy as np

        # Built up from n = 1 way. State s of n ways is first way a =
        # s // (n-1)! followed by the order of rank r = s % (n-1)! over
        # the other ways (relabelled 0..n-2). Touching way w != a gives
        # (w, a, rest without w): its rank is w (n-1)! plus a's label
        # without w times (n-2)!, plus the rank of rest without w, which
        # the n-1 table's touch of w in r holds past its first digit.
        touch = np.zeros((1, 1), dtype=np.int64)
        last = np.zeros(1, dtype=np.int64)  # each state's LRU way
        f = 1  # (n - 1)!
        for n in range(2, 9):
            g = f // (n - 1)
            s = np.arange(n * f)
            a, r = np.divmod(s, f)
            first = a[:, None]
            w = np.arange(n)
            col = np.minimum(w - (w > first), n - 2)
            rest = np.take_along_axis(touch[r], col, axis=1) - col * g
            moved = w * f + (first - (first > w)) * g + rest
            touch = np.where(w == first, s[:, None], moved)
            lru = last[r]
            last = lru + (lru >= a)
            f *= n
        # Evict-and-fill in one lookup: victim way in the low bits, the
        # post-touch state above them.
        fill = (touch[np.arange(f), last] << 3) | last
        tables = _TABLES["lru8"] = (
            touch.ravel().astype(np.int32), fill.astype(np.int32),
        )
    return tables


def _plru8_tables(lvl):
    """An 8-way tree-PLRU level's int32 ``touch`` table (next tree state
    for every ``(bits, way)``) and ``fill`` table (for every ``bits``,
    the unmasked victim way in the low 3 bits, the post-fill state above
    them)."""
    key = ("plru8", lvl._leaves, lvl._full_mask)
    tables = _TABLES.get(key)
    if tables is None:
        import numpy as np

        W = lvl.num_ways
        touch = []
        fill = []
        for bits in range(1 << lvl._leaves):
            touch.extend(
                (bits | set_bits) & clear_inv
                for set_bits, clear_inv in zip(
                    lvl._plru_set, lvl._plru_clear_inv
                )
            )
            victim = lvl._plru_victim(bits, lvl._full_mask)
            fill.append((touch[bits * W + victim] << 3) | victim)
        tables = _TABLES[key] = (
            np.asarray(touch, dtype=np.int32),
            np.asarray(fill, dtype=np.int32),
        )
    return tables


def _llc_geometry(llc):
    key = ("llcgeo", llc._leaves, llc.num_ways)
    tables = _TABLES.get(key)
    if tables is None:
        import numpy as np

        tables = _TABLES[key] = (
            np.asarray(llc._plru_set, dtype=np.int64),
            np.asarray(llc._plru_clear_inv, dtype=np.int64),
            np.asarray(llc._plru_left, dtype=np.int64),
            np.asarray(llc._plru_right, dtype=np.int64),
        )
    return tables


def _native_core_eligible(hierarchy, core):
    """The native kernels' precondition for one core: their level
    arrangement, read-only cache state and 8-way inner levels.

    The kernels' bank layout holds an LRU, modulo-indexed L1, a PLRU,
    modulo-indexed L2 and a PLRU LLC. All-zero dirty, prefetch, and
    inner-sharer state stays all-zero under a read-only replay (nothing
    in the walk can set those bits), so the layout carries none of them.
    The 8-way LRU FSM of the kernels' L1 and their 8-way L2 tables
    additionally need W == 8.
    """
    l1 = hierarchy.l1[core]
    l2 = hierarchy.l2[core]
    llc = hierarchy.llc.storage
    if not l1._is_lru or l2._is_lru or llc._is_lru:
        return False
    if l1._mod_mask < 0 or l2._mod_mask < 0:
        return False
    if l1.num_ways != 8 or l2.num_ways != 8:
        return False
    for lvl in (l1, l2, llc):
        if any(lvl._dirty) or any(lvl._prefetched) or any(lvl._touched_pf):
            return False
    if any(l1._sharers) or any(l2._sharers):
        return False
    return True


def _l1_perm_state(l1):
    """Per-set 8-way LRU permutation-FSM state from the stamp array
    (stamps are unique per set; descending stamp = most recent first)."""
    import numpy as np

    stamps = np.asarray(l1._stamp, dtype=np.int64).reshape(-1, 8)
    orders = np.argsort(-stamps, axis=1)
    # The rank is the sum of the order's Lehmer digits (digit k counts
    # the later ways smaller than the way at position k), weighted.
    later = np.triu(np.ones((8, 8), dtype=bool), 1)
    smaller = orders[:, None, :] < orders[:, :, None]
    return ((smaller & later).sum(axis=2) @ np.array(_LEHMER8)).tolist()


# ---------------------------------------------------------------------------
# Epoch-resumable N-domain replay (multiwalk.c + pure-Python reference)
# ---------------------------------------------------------------------------

# dom[] per-domain slot offsets; must match the D_* enum in multiwalk.c.
_DOM_STRIDE = 20
_D_MASK = 2
_D_N, _D_POS, _D_LIVE, _D_VTIME = 7, 9, 10, 11
_D_H1 = 12  # h1, h2, h3, m3, e1, e2, e3 follow contiguously
# cfg[] per-cell scalars; must match the CFG_* enum in multiwalk.c.
_CFG_SLOTS = 8
_CFG_STOP, _CFG_LLC_SETS = 6, 7
# sched[] per-cell slots; must match the SCHED_* enum in multiwalk.c.
_SCHED_SLOTS = 2
_SCHED_ISSUED = 0
# A walk's hit levels, in the order of the epoch drivers' counters.
_HIT_LEVELS = ("L1", "L2", "LLC", "MEM")


def _epoch_replay_supported(hierarchy, cores):
    """The one gate of both epoch drivers (the native ones add their own).

    Distinct cores that each pass :func:`_native_core_eligible`. The
    Python driver could take more, but sharing the gate keeps each
    native setting accepting exactly the same co-runs.
    """
    if len(set(cores)) != len(cores):
        return False
    return all(_native_core_eligible(hierarchy, core) for core in cores)


def _plain_column(col):
    """A plain Python list view of a pack column (lists pass through)."""
    if isinstance(col, list):
        return col
    tolist = getattr(col, "tolist", None)
    return tolist() if tolist is not None else list(col)


class PythonEpochReplay:
    """Reference epoch driver over the hierarchy's own access walk.

    Implements the exact scheduler of ``multiwalk.c`` — linear scan for
    the minimum ``(vtime, slot)`` over live domains, exhausted
    non-repeating domains retiring without issuing, ``stop_at`` as an
    absolute issued-access target — over
    :meth:`~repro.cache.hierarchy.CacheHierarchy.access_fast`, the
    :meth:`KernelCacheLevel.access`/:meth:`~KernelCacheLevel.fill` walk
    :meth:`TraceEngine.run` takes. Virtual times and slot keys are
    unique, so the scan order equals the ``(vtime, slot)`` heap order of
    :meth:`TraceEngine.run` and replays are bit-identical to both that
    reference and the native kernel.

    The walk updates the levels' stats, recency state and any attached
    LLC profiler itself, so this is the only epoch driver that accepts a
    profiler. That makes it the reference and the fallback for a
    profiled pass: with the native kernels, the profiled co-run behind
    :func:`~repro.sim.trace_engine.way_allocation_sweep` is one
    ``profile`` cell of :func:`build_native_batch_replay` instead.

    Every LLC fill reads the domain's current way mask
    (:meth:`~repro.cache.llc.PartitionedLLC.fill`), so a mask change
    takes effect on the next access with nothing flushed — the Section
    2.1 mask-change contract.
    """

    def __init__(self, hierarchy, cores, thinks, lines, lengths, repeats):
        self._access = hierarchy.access_fast
        self._cores = list(cores)
        self._thinks = list(thinks)
        self._lines = [_plain_column(col) for col in lines]
        self._lengths = [int(n) for n in lengths]
        self._repeats = [bool(r) for r in repeats]
        n = len(self._cores)
        self._positions = [0] * n
        self._vtimes = [0] * n
        self._lives = [bool(x) for x in self._lengths]
        self._issued = 0
        self._tallies = [dict.fromkeys(_HIT_LEVELS, 0) for _ in range(n)]

    def vtimes(self):
        return list(self._vtimes)

    def counters(self, slot):
        """Cumulative ``(l1_hits, l2_hits, llc_hits, llc_misses)``."""
        return tuple(self._tallies[slot].values())

    def run_epoch(self, stop_at):
        """Advance until ``issued == stop_at`` or every domain has
        retired; returns the total issued so far. Call again to resume
        exactly."""
        access, cores = self._access, self._cores
        thinks, lines = self._thinks, self._lines
        positions, vtimes, tallies = (
            self._positions, self._vtimes, self._tallies
        )
        lives, lengths, repeats = self._lives, self._lengths, self._repeats
        nslots = len(cores)
        issued = self._issued
        while issued < stop_at:
            best = -1
            bt = 0
            for d in range(nslots):
                if lives[d]:
                    vt = vtimes[d]
                    if best < 0 or vt < bt:
                        best = d
                        bt = vt
            if best < 0:
                break
            i = positions[best]
            if i == lengths[best]:
                if not repeats[best]:
                    lives[best] = False
                    continue
                i = 0
            level, latency = access(lines[best][i], False, cores[best])
            vtimes[best] = bt + (latency + thinks[best])
            tallies[best][level] += 1
            positions[best] = i + 1
            issued += 1
        self._issued = issued
        return issued

    def finish(self):
        """Returns ``(level counts, vtimes)``; the walk has already
        written every stat and state change into the hierarchy."""
        counts = tuple(self.counters(s) for s in range(len(self._cores)))
        return counts, tuple(self._vtimes)


def build_python_epoch_replay(hierarchy, cores, thinks, lines, lengths,
                              repeats):
    """The pure-Python reference epoch driver, or ``None`` where
    :func:`_epoch_replay_supported` declines (shared cores, or levels
    outside the native kernels' arrangement or their read-only, 8-way
    precondition)."""
    if not _epoch_replay_supported(hierarchy, cores):
        return None
    return PythonEpochReplay(
        hierarchy, cores, thinks, lines, lengths, repeats
    )


class TemplateBank:
    """One snapshot of a kernel hierarchy's state, in the batch kernels'
    bank layout (:meth:`layout`): the state every batch cell starts
    from.

    The batch kernels reset each cell's (or each worker's) bank from
    this one bank inside their threaded work items — a whole copy, or
    for a reused worker bank only the LLC sets its last cell touched
    plus the L1/L2 of the cores it could have written — so building a
    roster costs one snapshot, not one per cell. The snapshot is taken
    on first use of :attr:`bank` and kept, and so is each core's
    eligibility (:meth:`eligible`): reuse a ``TemplateBank`` only while
    its hierarchy stays untouched, as the roster drivers do with their
    one cold template per process. Nothing writes a cell's bank back
    into the template or its hierarchy.
    """

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy
        self._bank = None
        self._eligible = {}

    def eligible(self, cores):
        """:func:`_epoch_replay_supported` for distinct ``cores``, each
        core's state checked once per template."""
        for core in cores:
            if core not in self._eligible:
                self._eligible[core] = _native_core_eligible(
                    self.hierarchy, core
                )
        return all(self._eligible[core] for core in cores)

    @property
    def bank(self):
        if self._bank is None:
            self._bank = self._snapshot()
        return self._bank

    def layout(self):
        """Slices of one bank by section, and the bank's length in words:
        ``({section: slice}, stride)``. The sections must match
        ``BankLayout`` in ``batchwalk.c``."""
        h = self.hierarchy
        llc = h.llc.storage
        llc_tw = llc.num_sets * llc.num_ways
        l1 = h.num_cores * h.l1[0].num_sets
        l2 = h.num_cores * h.l2[0].num_sets
        sections = (
            ("llc_tags", llc_tw), ("llc_sharers", llc_tw),
            ("llc_valid", llc.num_sets), ("llc_plru", llc.num_sets),
            ("l1_tags", 8 * l1), ("l1_valid", l1), ("l1_state", l1),
            ("l2_tags", 8 * l2), ("l2_valid", l2), ("l2_plru", l2),
            ("bi", 2 * h.num_cores),
        )
        layout = {}
        offset = 0
        for name, size in sections:
            layout[name] = slice(offset, offset + size)
            offset += size
        return layout, offset

    def _snapshot(self):
        import numpy as np

        h = self.hierarchy
        llc = h.llc.storage
        sections = (  # in layout() order
            llc._tags, llc._sharers, llc._valid, llc._plru,
            *(l1._tags for l1 in h.l1), *(l1._valid for l1 in h.l1),
            *(_l1_perm_state(l1) for l1 in h.l1),
            *(l2._tags for l2 in h.l2), *(l2._valid for l2 in h.l2),
            *(l2._plru for l2 in h.l2),
            [0] * (2 * h.num_cores),  # back-invalidation counters
        )
        return np.concatenate(
            [np.asarray(section, dtype=np.int64) for section in sections]
        )


class NativeBatchReplay:
    """One-call batched replay over the compiled ``batchwalk.c`` kernel.

    Holds R independent replay cells — the allocations of a way sweep,
    or a roster of unrelated co-runs — over ONE :class:`TemplateBank`:
    each cell's work item resets its worker thread's own bank to the
    template before replaying, so every cell starts from an identical
    state, no cell can observe another, and a roster holds one bank per
    worker thread rather than one per cell. The reset restores only the
    LLC sets the worker's previous cell issued accesses to — marked in
    a per-worker reset record allocated here beside the banks — plus the
    L1/L2 of that cell's cores and of every core whose template L1/L2
    holds a line (the only ones a cell can back-invalidate); a worker's
    first cell in each :meth:`run` copies the whole template. The cells
    come as one :class:`BatchCells` table, laid into the kernel's cfg,
    dom and column-pointer arrays with whole-array operations. This
    class and its epoch subclass are the only
    owners of that layout. :meth:`run` is a single ``ctypes`` call; the
    kernel threads over cells but each writes only its own dom/sched
    slice, so the per-cell ``(counters, vtimes)`` read back afterwards
    are bit-identical to replaying each cell alone, for any thread
    count.

    Batch cells are throwaway measurements: no state moves from the
    banks back into the hierarchy's Python objects. A cell built with
    ``profile`` also fills its
    own per-domain UMON buffer (:meth:`cell_profile`), allocated here
    for that cell alone — the profiled co-run behind
    :func:`~repro.sim.trace_engine.way_allocation_sweep`.
    """

    # One working bank per worker thread; the epoch subclass keeps one
    # persistent bank per cell instead.
    _bank_per_cell = False

    def __init__(self, template, cells, threads, fn):
        import ctypes

        import numpy as np

        i64 = np.int64
        h = template.hierarchy
        llc = h.llc.storage
        num_cores = h.num_cores
        column = np.asarray(cells.column)
        R, n_max = column.shape
        threads = min(threads, R)
        valid = column >= 0
        ndom = valid.sum(axis=1)
        self._h = h
        self._template = template
        self._ndom = ndom
        self._fn = fn

        l1_touch, l1_fill = _lru8_tables()[:2]
        l2_touch, l2_fill = _plru8_tables(h.l2[0])
        pset, pclr, pleft, pright = _llc_geometry(llc)
        l1_sets = h.l1[0].num_sets
        l2_sets = h.l2[0].num_sets
        self._layout, stride = template.layout()
        nbanks = R if self._bank_per_cell else threads
        # Filled from the template inside the kernel, never read unfilled.
        banks = np.empty(nbanks * stride, dtype=i64)

        cfg = np.zeros((R, _CFG_SLOTS), dtype=i64)
        cfg[:, 0] = ndom
        cfg[:, 1] = llc._leaves
        cfg[:, 2] = llc.num_ways
        cfg[:, 3] = h.l1[0]._mod_mask
        cfg[:, 4] = h.l2[0]._mod_mask
        cfg[:, 5] = num_cores
        cfg[:, _CFG_STOP] = cells.stops
        cfg[:, _CFG_LLC_SETS] = llc.num_sets

        # Each column used once, as a contiguous int64 array: a pack's
        # memmapped columns pass through uncopied.
        lines, sets = {}, {}
        line_at = np.zeros(len(cells.lines), dtype=np.uintp)
        set_at = np.zeros(len(cells.lines), dtype=np.uintp)
        for k in set(column[valid].tolist()):
            lines[k] = np.ascontiguousarray(cells.lines[k], dtype=i64)
            sets[k] = np.ascontiguousarray(cells.sets[k], dtype=i64)
            line_at[k] = lines[k].ctypes.data
            set_at[k] = sets[k].ctypes.data
        column = np.where(valid, column, 0)
        line_ptrs = np.where(valid, line_at[column], 0).astype(np.uintp)
        set_ptrs = np.where(valid, set_at[column], 0).astype(np.uintp)

        cores = np.where(valid, cells.cores, 0).astype(i64)
        thinks = np.asarray(cells.thinks, dtype=i64)
        n = np.asarray(cells.lengths, dtype=i64)[column]
        dom = np.zeros((R, n_max, _DOM_STRIDE), dtype=i64)
        dom[..., 0] = cores
        dom[..., 1] = np.left_shift(1, cores)
        dom[..., _D_MASK] = cells.masks
        dom[..., 3] = 4 + thinks
        dom[..., 4] = 12 + thinks
        dom[..., 5] = 30 + thinks
        dom[..., 6] = 200 + thinks
        dom[..., _D_N] = n
        dom[..., 8] = np.asarray(cells.repeats, dtype=bool)
        dom[..., _D_LIVE] = n > 0
        dom[~valid] = 0

        sched = np.zeros((R, _SCHED_SLOTS), dtype=i64)
        # One zeroed UMON buffer per profiling cell, never one in the
        # worker banks: (W + 1) x (S + 1) words per domain, as umon_words
        # in multiwalk.c lays them out. Cells that do not profile pass
        # NULL and pay one branch per LLC probe.
        umon = {}
        umon_ptrs = np.zeros(R, dtype=np.uintp)
        if cells.profile is not None:
            for r in np.flatnonzero(cells.profile).tolist():
                umon[r] = np.zeros(
                    (int(ndom[r]), (llc.num_ways + 1) * (llc.num_sets + 1)),
                    dtype=i64,
                )
                umon_ptrs[r] = umon[r].ctypes.data
        self._umon = umon
        bcfg = np.array(
            [R, threads, n_max, llc.num_sets, llc.num_ways,
             l1_sets, l2_sets, num_cores, nbanks],
            dtype=i64,
        )
        self._cfg, self._dom, self._sched = cfg, dom, sched
        self._banks = banks.reshape(nbanks, stride)

        arrays = (
            bcfg, cfg, dom, line_ptrs, set_ptrs,
            template.bank, banks,
            pset, pclr, pleft, pright,
            l1_touch, l1_fill, l2_touch, l2_fill,
            sched, umon_ptrs,
        )
        if not self._bank_per_cell:
            # One reset record per worker bank, as reset_words in
            # batchwalk.c lays it out: a must-refill flag, the previous
            # cell's core bits, then one mark bit per LLC set.
            reset = np.zeros(
                (nbanks, 2 + (llc.num_sets + 63) // 64), dtype=i64
            )
            arrays = (*arrays, reset)
        self._keep = (arrays, lines, sets)
        self._args = [ctypes.c_void_p(a.ctypes.data) for a in arrays]

    def cell_result(self, r):
        """Cell ``r``'s ``(counts, vtimes)`` read from its dom slice,
        where ``counts`` is a per-domain tuple of ``(l1_hits, l2_hits,
        llc_hits, llc_misses)`` — the same shape
        :meth:`PythonEpochReplay.finish` reports."""
        dom = self._dom[r, :self._ndom[r]]
        return (
            tuple(map(tuple, dom[:, _D_H1:_D_H1 + 4].tolist())),
            tuple(dom[:, _D_VTIME].tolist()),
        )

    def cell_profile(self, r):
        """Profiling cell ``r``'s per-domain UMON histograms, one list
        of ``W + 1`` counts per slot: entry ``d`` counts LLC probes that
        hit at stack depth ``d``, entry ``W`` those past every
        allocation — :class:`~repro.cache.profile.WayProfiler`'s
        histogram for that slot's core."""
        W = self._h.llc.storage.num_ways
        return self._umon[r][:, :W + 1].tolist()

    def results(self):
        """Every cell's ``(counts, vtimes)`` as arrays: ``(R, n_max, 4)``
        level counts and ``(R, n_max)`` virtual times, zero past a
        cell's last domain."""
        return (
            self._dom[:, :, _D_H1:_D_H1 + 4].copy(),
            self._dom[:, :, _D_VTIME].copy(),
        )

    def run(self):
        """One ctypes call; returns :meth:`results`."""
        self._fn(*self._args)
        return self.results()


def _check_mask_word(bits, num_ways):
    """Raise unless ``bits`` names a non-empty subset of ``num_ways``
    ways: the kernels pick LLC victim ways from the word unchecked."""
    if not 0 < bits <= (1 << num_ways) - 1:
        raise ValidationError(
            f"LLC way-mask word {bits:#x} must name a non-empty subset "
            f"of {num_ways} ways"
        )


@dataclass
class BatchCells:
    """The cells of one batch as arrays over shared trace columns.

    ``lines[k]`` and ``sets[k]`` are trace column ``k``'s line numbers
    and LLC set indices, and ``lengths[k]`` the accesses one pass over
    it issues. Row ``r`` of the ``(R, n_max)`` arrays holds cell ``r``'s
    domains: ``column`` names the trace column each slot replays, ``-1``
    past the cell's last domain; ``cores``, ``thinks``, ``repeats`` and
    ``masks`` (LLC way-mask words) describe the slot. ``stops[r]`` is
    the cell's issue target, and a true ``profile[r]`` gives the cell
    its own UMON.
    """

    lines: list
    sets: list
    lengths: object
    column: object
    cores: object
    thinks: object
    repeats: object
    masks: object
    stops: object
    profile: object = None


def _check_batch_cells(cells, num_cores, num_sets, num_ways):
    """Raise unless the kernels can take ``cells`` unchecked: one core,
    think, repeat flag and mask word per domain slot, domains packed at
    the front of each row, and every core, trace column, set index and
    mask word in range. The kernels use the core, ``lengths[k]`` entries
    of both columns of trace column ``k`` and every set index unchecked,
    and pick LLC victim ways from the mask word. Each check runs once
    per distinct column, core and word, never once per cell."""
    import numpy as np

    column = np.asarray(cells.column)
    if column.ndim != 2:
        raise ValidationError("need an (R, n_max) column index per domain")
    for name in ("cores", "thinks", "repeats", "masks"):
        if np.shape(getattr(cells, name)) != column.shape:
            raise ValidationError(
                f"need one {name[:-1]} per cell domain: {name} has shape "
                f"{np.shape(getattr(cells, name))}, columns {column.shape}"
            )
    if np.shape(cells.stops) != column.shape[:1]:
        raise ValidationError("need one stop per cell")
    K = len(cells.lines)
    if not len(cells.sets) == len(cells.lengths) == K:
        raise ValidationError(
            "need one line column, set column and length per trace column"
        )
    valid = column >= 0
    if (column >= K).any():
        raise ValidationError(f"column index outside [0, {K})")
    if (valid[:, 1:] & ~valid[:, :-1]).any():
        raise ValidationError("a cell's domains must fill its first slots")
    for core in set(np.asarray(cells.cores)[valid].tolist()):
        if not 0 <= core < num_cores:
            raise ValidationError(f"core {core} outside [0, {num_cores})")
    for k in sorted(set(column[valid].tolist())):
        lines, sets = cells.lines[k], cells.sets[k]
        n = int(cells.lengths[k])
        if not len(lines) == len(sets) >= n >= 0:
            raise ValidationError(
                f"trace column {k}: line column ({len(lines)}) and set "
                f"column ({len(sets)}) must be equally long and cover "
                f"length {n}"
            )
        arr = np.asarray(sets)
        if arr.size and not (0 <= arr.min() and arr.max() < num_sets):
            raise ValidationError(
                f"trace column {k}: set column indexes outside "
                f"[0, {num_sets})"
            )
    for bits in set(np.asarray(cells.masks)[valid].tolist()):
        _check_mask_word(bits, num_ways)


def _batch_cells_supported(template, cells):
    """Shared preconditions of the batched builders (one bank layout).

    :func:`_check_batch_cells` raises first on a bad word, a short
    column or an out-of-range core or set index. Then every cell needs
    1 to 16 domains on distinct cores, and the template's state is
    checked once per distinct core the cells use
    (:meth:`TemplateBank.eligible`).
    """
    import numpy as np

    h = template.hierarchy
    llc = h.llc.storage
    _check_batch_cells(cells, h.num_cores, llc.num_sets, llc.num_ways)
    # Way masks, sharer sets and the reset records' core sets are
    # 64-bit words.
    if h.llc_profiler is not None or llc.num_ways > 62 or h.num_cores > 63:
        return False
    valid = np.asarray(cells.column) >= 0
    ndom = valid.sum(axis=1)
    if not len(ndom) or ndom.min() < 1 or ndom.max() > 16:
        return False
    # Padding slots take distinct negative cores, so a repeat in a
    # sorted row is two domains of one cell on one core.
    cores = np.where(valid, cells.cores, -1 - np.arange(valid.shape[1]))
    cores = np.sort(cores, axis=1)
    if (cores[:, 1:] == cores[:, :-1]).any():
        return False
    if not template.eligible(sorted(set(cores[cores >= 0].tolist()))):
        return False
    l1_mod = h.l1[0]._mod_mask
    l2_mod = h.l2[0]._mod_mask
    for c in range(h.num_cores):
        l1 = h.l1[c]
        l2 = h.l2[c]
        if l1.num_ways != 8 or l2.num_ways != 8:
            return False
        if l1._mod_mask != l1_mod or l2._mod_mask != l2_mod:
            return False
    return True


def _build_batch(cls, kernel_fn, hierarchy, cells, threads):
    """The shared body of the batched builders: validate, load the
    kernel, resolve threads, and build ``cls`` over the template bank
    (``hierarchy`` itself when it is a :class:`TemplateBank`, else a
    fresh snapshot of it)."""
    if isinstance(hierarchy, TemplateBank):
        template = hierarchy
    else:
        template = TemplateBank(hierarchy)
    if not _batch_cells_supported(template, cells):
        return None

    from repro.cache import native

    fn = kernel_fn()
    if fn is None:
        return None
    threads = native.resolve_native_threads(len(cells.stops), threads)
    return cls(template, cells, threads, fn)


def build_native_batch_replay(hierarchy, cells, threads=None):
    """Batched driver over ``batchwalk.c``, or ``None`` when any cell
    fails the epoch-replay preconditions, an LLC profiler is attached to
    the hierarchy, or the kernel is unavailable. A mask word outside the
    LLC's ways, a short column, or a core or set index out of range
    raises :class:`ValidationError`.

    ``hierarchy`` is the template every cell starts from: a kernel
    :class:`~repro.cache.hierarchy.CacheHierarchy`, snapshotted by this
    call, or a :class:`TemplateBank` of one, reused as is. ``cells`` is
    a :class:`BatchCells` table; the cfg, dom and column-pointer arrays
    are filled from it in whole-array operations. A true
    ``profile[r]`` gives every domain of cell ``r`` its own UMON, fed at
    each LLC probe exactly as an attached
    :class:`~repro.cache.profile.WayProfiler` would be (keyed by the
    domain's core), and read back with
    :meth:`NativeBatchReplay.cell_profile`. ``threads`` follows
    :func:`repro.cache.native.resolve_native_threads` — invalid
    ``REPRO_NATIVE_THREADS`` values raise, they never silently fall
    back.
    """
    from repro.cache import native

    return _build_batch(
        NativeBatchReplay, native.batch_walk_fn, hierarchy, cells, threads
    )


class NativeEpochBatchReplay(NativeBatchReplay):
    """Epoch-resumable batched driver over ``epochbatch.c``.

    The template bank of :class:`NativeBatchReplay`, plus one persistent
    bank per cell that the kernel fills from the template in the cell's
    first work item and keeps alive between calls: :meth:`run_active`
    is ONE ctypes call that advances only the named cells, each to its
    own per-cell stop target (:meth:`set_stop`), and returns with every
    cell's walk state — LLC and inner-cache tags and recency, per-domain
    counters, cursors, virtual times, scheduler frontiers — resting in
    the Python-owned arrays. Between calls the host reads the banked
    counters (:meth:`counter_bank`, a zero-copy view sliced for
    vectorized MPKI windows), runs each cell's controller decision, and
    rewrites that cell's dom way-mask words flush-free
    (:meth:`set_mask_bits`). Each work item writes only its own cell's
    bank and slices, so the replay is bit-identical to the sequential
    epoch driver for any thread count and any active-set schedule.
    :meth:`restart` rewinds a cell's traces over its warm bank, the
    warm-then-measure passes of
    :func:`~repro.sim.trace_engine.measure_isolation`.
    """

    _bank_per_cell = True

    def __init__(self, template, cells, threads, fn):
        import ctypes

        import numpy as np

        super().__init__(template, cells, threads, fn)
        active = np.zeros(len(cells.stops) + 1, dtype=np.int64)
        self._active = active
        self._keep = (*self._keep, active)
        args = list(self._args)
        args.insert(1, ctypes.c_void_p(active.ctypes.data))
        self._args = args

    def issued_of(self, r):
        """Cell ``r``'s scheduler frontier (total issued accesses)."""
        return int(self._sched[r, _SCHED_ISSUED])

    def set_stop(self, r, stop):
        """Cell ``r``'s next absolute issued-access target."""
        self._cfg[r, _CFG_STOP] = stop

    def set_mask_bits(self, r, slot, bits):
        """Rewrite one domain's LLC way-mask word — a flush-free
        reallocation for one (cell, domain)."""
        _check_mask_word(bits, self._h.llc.storage.num_ways)
        self._dom[r, slot, _D_MASK] = bits

    def counter_bank(self):
        """``(R, n_max, 4)`` int64 view of the cumulative per-domain
        ``(l1_hits, l2_hits, llc_hits, llc_misses)`` counters, zero-copy
        into the dom bank; slots past a cell's domain count stay zero."""
        return self._dom[:, :, _D_H1:_D_H1 + 4]

    def run_active(self, active_cells):
        """ONE ctypes call advancing ``active_cells`` to their stops."""
        a = self._active
        n = len(active_cells)
        a[0] = n
        a[1:1 + n] = active_cells
        self._fn(*self._args)

    def restart(self, r):
        """Rewind cell ``r`` to the start of its traces and keep its
        bank: its cursors, virtual times, counters and issued count go
        to zero and every domain with accesses is live again — what a
        second :meth:`~repro.sim.trace_engine.TraceEngine.run_packed` on
        the same engine starts from."""
        dom = self._dom[r]
        dom[:, _D_POS:] = 0
        dom[:, _D_LIVE] = dom[:, _D_N] > 0
        self._sched[r, _SCHED_ISSUED] = 0


def build_native_epoch_batch_replay(hierarchy, cells, threads=None):
    """Batched epoch driver over ``epochbatch.c``, or ``None`` when any
    cell fails the epoch-replay preconditions or the kernel is
    unavailable.

    ``hierarchy`` and ``cells`` take the same forms as in
    :func:`build_native_batch_replay`; ``stop`` is the first epoch
    target (0 means nothing runs until the host raises it via
    ``set_stop``). ``threads`` resolves like the one-shot batch driver;
    each call's worker count further clamps to the active cell count
    inside the kernel.
    """
    from repro.cache import native

    return _build_batch(
        NativeEpochBatchReplay, native.epoch_batch_fn, hierarchy, cells,
        threads,
    )

