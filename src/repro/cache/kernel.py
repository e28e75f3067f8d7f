"""Flat-array set-associative simulation kernel.

:class:`KernelCacheLevel` is a drop-in replacement for
:class:`repro.cache.cache.CacheLevel` that keeps tag, state, and recency
information in flat contiguous buffers instead of nested ``CacheLine``
objects:

- presence is one per-set ``tag -> way`` dict probe instead of a linear
  way scan;
- valid/dirty/prefetched flags are per-set bitmasks, sharers and tags
  are flat integer arrays;
- true-LRU recency is a monotonically increasing touch stamp (victim =
  minimum stamp among allowed ways, exactly the tail of the recency
  list);
- tree-PLRU touches collapse to two precomputed bit masks per way
  (the touch path through the tree is fixed per way), and the victim
  walk tests subtree membership with range bitmasks;
- hashed set indices are memoized (the XOR fold is the only per-access
  loop left otherwise).

The kernel is bit-identical to the object model — same hits, same victim
choices, same evictions and stats — for LRU and PLRU, modulo and hashed
indexing, with and without way masks. ``tests/cache/test_kernel.py``
holds the two backends to exact agreement step by step.
"""

from repro.cache.block import CacheLine
from repro.cache.cache import CacheLevel, _INDEXING
from repro.cache.stats import CacheStats
from repro.util.errors import ConfigurationError, ValidationError

BACKENDS = ("object", "kernel")

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
            # Stamp ordering replicates TrueLru's initial recency list
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
        address-level engine. Counts are identical to the object model.
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
        """Replicate the object policies' victim choice (and errors)."""
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
        bits = self._plru[set_idx]
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
        """Insert a line, evicting if necessary (CacheLevel semantics)."""
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


def build_fused_walk(hierarchy, core):
    """One prefetchers-off L1 -> L2 -> LLC access walk as a single closure.

    Fuses the per-level probe, fill, recency, and stats updates of
    :meth:`repro.cache.hierarchy.CacheHierarchy.access_fast` into one
    function over the three levels' flat state for ``core``: no per-level
    method dispatch, no ``CacheLine`` construction for evictions, and no
    re-indexing between a probe and the fill that follows it. State and
    stats transitions are bit-identical to the generic walk; the rare
    paths (dirty L1 victim missing from L2, dirty L2 victim writeback)
    fall back to the shared helpers.

    Returns ``None`` when the hierarchy's levels are not all kernel-backed
    or not in the expected LRU/PLRU/PLRU arrangement, in which case the
    caller keeps the generic path.
    """
    if not _pack_walk_supported(hierarchy, core):
        return None
    l1 = hierarchy.l1[core]
    l2 = hierarchy.l2[core]
    llc_part = hierarchy.llc
    llc = llc_part.storage

    h = hierarchy
    num_cores = h.num_cores
    core_bit = 1 << core
    scratch = h._scratch
    l1_objs = list(h.l1)
    l2_objs = list(h.l2)
    inner_l1_lookup = [lvl._lookup for lvl in l1_objs]
    inner_l2_lookup = [lvl._lookup for lvl in l2_objs]

    # L1: true LRU, modulo indexing.
    l1_mod = l1._mod_mask
    l1_W = l1.num_ways
    l1_full = l1._full_mask
    l1_lookup, l1_tags, l1_sharers = l1._lookup, l1._tags, l1._sharers
    l1_valid, l1_dirty = l1._valid, l1._dirty
    l1_pref, l1_tpf = l1._prefetched, l1._touched_pf
    l1_stamp = l1._stamp
    l1_stats = l1.stats
    l1_pa = l1_stats.per_domain_accesses
    l1_pm = l1_stats.per_domain_misses

    # L2: tree PLRU, modulo indexing.
    l2_mod = l2._mod_mask
    l2_W = l2.num_ways
    l2_full = l2._full_mask
    l2_leaves = l2._leaves
    l2_lookup, l2_tags, l2_sharers = l2._lookup, l2._tags, l2._sharers
    l2_valid, l2_dirty = l2._valid, l2._dirty
    l2_pref, l2_tpf = l2._prefetched, l2._touched_pf
    l2_plru = l2._plru
    l2_pset, l2_pclr = l2._plru_set, l2._plru_clear_inv
    l2_left, l2_right = l2._plru_left, l2._plru_right
    l2_stats = l2.stats
    l2_pa = l2_stats.per_domain_accesses
    l2_pm = l2_stats.per_domain_misses

    # LLC: tree PLRU, modulo or hashed indexing, way-masked fills.
    llc_mod = llc._mod_mask
    llc_memo = llc._index_memo
    llc_index = llc._indexer.index
    llc_W = llc.num_ways
    llc_leaves = llc._leaves
    llc_lookup, llc_tags, llc_sharers = llc._lookup, llc._tags, llc._sharers
    llc_valid, llc_dirty = llc._valid, llc._dirty
    llc_pref, llc_tpf = llc._prefetched, llc._touched_pf
    llc_plru = llc._plru
    llc_pset, llc_pclr = llc._plru_set, llc._plru_clear_inv
    llc_left, llc_right = llc._plru_left, llc._plru_right
    llc_stats = llc.stats
    llc_pa = llc_stats.per_domain_accesses
    llc_pm = llc_stats.per_domain_misses
    llc_mark_dirty = llc.mark_dirty
    mask_ways = llc_part._mask_ways  # mutated in place by set_mask
    mask_bits = llc_part._mask_bits

    def walk(line, is_write):
        # ---- L1 probe (LRU, modulo) -------------------------------------
        s1 = line & l1_mod
        way = l1_lookup[s1].get(line)
        l1_stats.accesses += 1
        l1_pa[core] = l1_pa.get(core, 0) + 1
        if way is not None:
            l1_stats.hits += 1
            l1_stamp[s1 * l1_W + way] = l1._clock
            l1._clock += 1
            if is_write:
                l1_dirty[s1] |= 1 << way
            pf = l1_pref[s1]
            if pf:
                bit = 1 << way
                if pf & bit and not l1_tpf[s1] & bit:
                    l1_tpf[s1] |= bit
                    l1_stats.prefetch_useful += 1
            return "L1", 4
        l1_stats.misses += 1
        l1_pm[core] = l1_pm.get(core, 0) + 1

        # ---- L2 probe (PLRU, modulo) ------------------------------------
        s2 = line & l2_mod
        look2 = l2_lookup[s2]
        way = look2.get(line)
        l2_stats.accesses += 1
        l2_pa[core] = l2_pa.get(core, 0) + 1
        if way is not None:
            l2_stats.hits += 1
            l2_plru[s2] = (l2_plru[s2] | l2_pset[way]) & l2_pclr[way]
            if is_write:
                l2_dirty[s2] |= 1 << way
            pf = l2_pref[s2]
            if pf:
                bit = 1 << way
                if pf & bit and not l2_tpf[s2] & bit:
                    l2_tpf[s2] |= bit
                    l2_stats.prefetch_useful += 1
            level = "L2"
            latency = 12
        else:
            l2_stats.misses += 1
            l2_pm[core] = l2_pm.get(core, 0) + 1

            # ---- LLC probe ----------------------------------------------
            prof = h.llc_profiler
            if prof is not None:
                prof.observe(line, core)
            if llc_mod >= 0:
                s3 = line & llc_mod
            else:
                s3 = llc_memo.get(line)
                if s3 is None:
                    s3 = llc_index(line)
                    if len(llc_memo) >= _INDEX_MEMO_CAP:
                        llc_memo.clear()
                    llc_memo[line] = s3
            look3 = llc_lookup[s3]
            way = look3.get(line)
            llc_stats.accesses += 1
            llc_pa[core] = llc_pa.get(core, 0) + 1
            if way is not None:
                llc_stats.hits += 1
                llc_plru[s3] = (llc_plru[s3] | llc_pset[way]) & llc_pclr[way]
                if is_write:
                    llc_dirty[s3] |= 1 << way
                pf = llc_pref[s3]
                if pf:
                    bit = 1 << way
                    if pf & bit and not llc_tpf[s3] & bit:
                        llc_tpf[s3] |= bit
                        llc_stats.prefetch_useful += 1
                llc_sharers[s3 * llc_W + way] |= core_bit  # add_sharer
                level = "LLC"
                latency = 30
            else:
                llc_stats.misses += 1
                llc_pm[core] = llc_pm.get(core, 0) + 1

                # ---- LLC fill (way-masked victim, inclusion) ------------
                mbits = mask_bits[core]
                valid3 = llc_valid[s3]
                victim = None
                if valid3 & mbits != mbits:
                    for w in mask_ways[core]:
                        if not (valid3 >> w) & 1:
                            victim = w
                            break
                if victim is None:
                    bits = llc_plru[s3]
                    node = 1
                    while node < llc_leaves:
                        go_right = (bits >> node) & 1
                        if go_right:
                            if not mbits & llc_right[node]:
                                go_right = 0
                        elif not mbits & llc_left[node]:
                            go_right = 1
                        node = 2 * node + 1 if go_right else 2 * node
                    victim = node - llc_leaves
                    base = s3 * llc_W + victim
                    vbit = 1 << victim
                    old_tag = llc_tags[base]
                    old_sharers = llc_sharers[base]
                    llc_stats.evictions += 1
                    if llc_dirty[s3] & vbit:
                        llc_stats.writebacks += 1
                    del look3[old_tag]
                    # Inclusion: the victim leaves every inner cache.
                    for c in range(num_cores):
                        if old_sharers and not (old_sharers >> c) & 1:
                            continue
                        if old_tag in inner_l1_lookup[c][old_tag & l1_mod]:
                            l1_objs[c].invalidate(old_tag)
                        if old_tag in inner_l2_lookup[c][old_tag & l2_mod]:
                            l2_objs[c].invalidate(old_tag)
                else:
                    base = s3 * llc_W + victim
                    vbit = 1 << victim
                llc_tags[base] = line
                llc_valid[s3] = valid3 | vbit
                if is_write:
                    llc_dirty[s3] |= vbit
                else:
                    llc_dirty[s3] &= ~vbit
                llc_sharers[base] = core_bit
                llc_pref[s3] &= ~vbit
                llc_tpf[s3] &= ~vbit
                look3[line] = victim
                llc_stats.fills += 1
                llc_plru[s3] = (llc_plru[s3] | llc_pset[victim]) & llc_pclr[victim]
                level = "MEM"
                latency = 200

            # ---- L2 fill (demand fills land clean) ----------------------
            valid2 = l2_valid[s2]
            if valid2 != l2_full:
                inv = ~valid2 & l2_full
                victim = (inv & -inv).bit_length() - 1
                base = s2 * l2_W + victim
                vbit = 1 << victim
            else:
                bits = l2_plru[s2]
                node = 1
                while node < l2_leaves:
                    go_right = (bits >> node) & 1
                    if go_right:
                        if not l2_full & l2_right[node]:
                            go_right = 0
                    elif not l2_full & l2_left[node]:
                        go_right = 1
                    node = 2 * node + 1 if go_right else 2 * node
                victim = node - l2_leaves
                base = s2 * l2_W + victim
                vbit = 1 << victim
                old_tag = l2_tags[base]
                l2_stats.evictions += 1
                if l2_dirty[s2] & vbit:
                    l2_stats.writebacks += 1
                    # Inclusive LLC normally still holds the line.
                    llc_mark_dirty(old_tag)
                del look2[old_tag]
            l2_tags[base] = line
            l2_valid[s2] = valid2 | vbit
            l2_dirty[s2] &= ~vbit
            l2_sharers[base] = 0
            l2_pref[s2] &= ~vbit
            l2_tpf[s2] &= ~vbit
            look2[line] = victim
            l2_stats.fills += 1
            l2_plru[s2] = (l2_plru[s2] | l2_pset[victim]) & l2_pclr[victim]

        # ---- L1 fill ----------------------------------------------------
        look1 = l1_lookup[s1]
        valid1 = l1_valid[s1]
        if valid1 != l1_full:
            inv = ~valid1 & l1_full
            victim = (inv & -inv).bit_length() - 1
            base = s1 * l1_W + victim
            vbit = 1 << victim
        else:
            base = s1 * l1_W
            victim = 0
            best = l1_stamp[base]
            for w in range(1, l1_W):
                stamp = l1_stamp[base + w]
                if stamp < best:
                    best = stamp
                    victim = w
            base += victim
            vbit = 1 << victim
            old_tag = l1_tags[base]
            l1_stats.evictions += 1
            if l1_dirty[s1] & vbit:
                l1_stats.writebacks += 1
                # Non-inclusive L2: a dirty L1 victim lands in (or
                # updates) L2; fall back to the shared helper on a miss.
                s2v = old_tag & l2_mod
                way2 = l2_lookup[s2v].get(old_tag)
                if way2 is not None:
                    l2_dirty[s2v] |= 1 << way2
                else:
                    h._fill_l2(core, old_tag, scratch, dirty=True)
            del look1[old_tag]
        l1_tags[base] = line
        l1_valid[s1] = valid1 | vbit
        if is_write:
            l1_dirty[s1] |= vbit
        else:
            l1_dirty[s1] &= ~vbit
        l1_sharers[base] = 0
        l1_pref[s1] &= ~vbit
        l1_tpf[s1] &= ~vbit
        look1[line] = victim
        l1_stats.fills += 1
        l1_stamp[base] = l1._clock
        l1._clock += 1
        return level, latency

    return walk


def _plru_victim_table(leaves, allowed_mask, left_masks, right_masks):
    """victim way for every PLRU bits value under one allowed-way mask.

    The victim walk depends only on (bits, allowed_mask); tree bits live
    in nodes ``1..leaves-1`` so there are at most ``2**leaves`` states.
    """
    table = [0] * (1 << leaves)
    for bits in range(1 << leaves):
        node = 1
        while node < leaves:
            go_right = (bits >> node) & 1
            if go_right:
                if not allowed_mask & right_masks[node]:
                    go_right = 0
            elif not allowed_mask & left_masks[node]:
                go_right = 1
            node = 2 * node + 1 if go_right else 2 * node
        table[bits] = node - leaves
    return table


# 8-way true-LRU as a finite state machine: per-set recency is one of
# 8! = 40320 permutation states, touch and victim are table lookups.
# Built lazily once per process, vectorized, and shared by every walk.
_LRU8_TABLES = None


def _lru8_tables():
    global _LRU8_TABLES
    if _LRU8_TABLES is None:
        import itertools

        import numpy as np

        perms = list(itertools.permutations(range(8)))
        index = dict(zip(perms, range(len(perms))))
        p = np.fromiter(
            itertools.chain.from_iterable(perms), dtype=np.int64,
            count=8 * len(perms),
        ).reshape(-1, 8)
        # Read as base-8 numbers, lexicographic order is numeric order,
        # so a permutation's index is a binary search over the codes.
        digits = 8 ** np.arange(7, -1, -1)
        codes = p @ digits
        touch = np.empty_like(p)
        for w in range(8):
            # Touching way w moves it to the front, the rest keep order.
            q = np.empty_like(p)
            q[:, 0] = w
            q[:, 1:] = p[p != w].reshape(-1, 7)
            touch[:, w] = np.searchsorted(codes, q @ digits)
        # Evict-and-fill in one lookup: victim way in the low bits, the
        # post-touch state above them.
        victim = p[:, 7]
        fill = (touch[np.arange(len(p)), victim] << 3) | victim
        _LRU8_TABLES = (touch.ravel().tolist(), fill.tolist(), perms, index)
    return _LRU8_TABLES


def _plru_touch_table(num_ways, set_masks, clear_invs, leaves):
    """next tree state for every (bits, way): bits' = (bits | set) & clear."""
    table = [0] * ((1 << leaves) * num_ways)
    for bits in range(1 << leaves):
        base = bits * num_ways
        for way in range(num_ways):
            table[base + way] = (bits | set_masks[way]) & clear_invs[way]
    return table


def _pack_walk_supported(hierarchy, core):
    """The fused walk's level arrangement, which the epoch drivers share."""
    l1 = hierarchy.l1[core]
    l2 = hierarchy.l2[core]
    llc = hierarchy.llc.storage
    levels = (l1, l2, llc)
    if not all(isinstance(lvl, KernelCacheLevel) for lvl in levels):
        return False
    if not l1._is_lru or l2._is_lru or llc._is_lru:
        return False
    if l1._mod_mask < 0 or l2._mod_mask < 0:
        return False
    return True


def _lean_walk_eligible(hierarchy, core):
    """Invariants that let the lean walk drop dirty/prefetch/sharer ops.

    All-zero dirty, prefetch, and inner-sharer state stays all-zero under
    a read-only replay (nothing in the walk can set those bits), so the
    corresponding updates are provably no-ops and the lean walk omits
    them. The 8-way LRU FSM additionally needs W == 8 at L1.
    """
    l1 = hierarchy.l1[core]
    l2 = hierarchy.l2[core]
    llc = hierarchy.llc.storage
    if l1.num_ways != 8 or l2.num_ways != 8:
        return False
    for lvl in (l1, l2, llc):
        if any(lvl._dirty) or any(lvl._prefetched) or any(lvl._touched_pf):
            return False
    if any(l1._sharers) or any(l2._sharers):
        return False
    return True


# Way-masked PLRU victims depend only on (tree geometry, mask, bits), so
# the lazy bits -> victim memo is shared process-wide per mask and stays
# warm across engine instances and repeated replays.
_LLC_VICTIM_MEMOS = {}


def _llc_victim_memo(leaves, num_ways, mask_bits):
    key = (leaves, num_ways, mask_bits)
    memo = _LLC_VICTIM_MEMOS.get(key)
    if memo is None:
        memo = _LLC_VICTIM_MEMOS[key] = {}
    return memo


# PLRU victim/touch/fill tables for the uniform 8-way inner levels are
# pure functions of the tree geometry; build them once per process.
_PLRU8_TABLES = {}


def _plru8_fill_tables(lvl):
    key = (lvl._leaves, lvl._full_mask)
    tables = _PLRU8_TABLES.get(key)
    if tables is None:
        victim_of = _plru_victim_table(
            lvl._leaves, lvl._full_mask, lvl._plru_left, lvl._plru_right
        )
        touch_of = _plru_touch_table(
            lvl.num_ways, lvl._plru_set, lvl._plru_clear_inv, lvl._leaves
        )
        fill_of = [
            (touch_of[(bits << 3) + v] << 3) | v
            for bits, v in enumerate(victim_of)
        ]
        tables = _PLRU8_TABLES[key] = (victim_of, touch_of, fill_of)
    return tables


def _flush_level_deltas(stats, hits, misses, evictions, writebacks, core):
    accesses = hits + misses
    if not accesses:
        return
    stats.accesses += accesses
    stats.hits += hits
    stats.misses += misses
    stats.fills += misses  # every walk-level miss fills the level
    stats.evictions += evictions
    stats.writebacks += writebacks
    pa = stats.per_domain_accesses
    pa[core] = pa.get(core, 0) + accesses
    if misses:
        pm = stats.per_domain_misses
        pm[core] = pm.get(core, 0) + misses


def _build_lean_pack_walk(hierarchy, core, think_cycles):
    """One core's read-only pack-replay walk, the Python epoch driver's
    per-access step.

    Same state transitions as :func:`build_fused_walk` (bit-identical
    caches and stats totals), restructured for long replays:

    - the LLC set index comes precomputed from the pack's geometry
      column (``walk(line, llc_set)``) — no hashing on the hot path;
    - the walk returns the access's whole virtual-time delta
      (``latency + think_cycles``) and counts hit levels in closure
      locals, which land in the :class:`CacheStats` objects on
      ``flush()`` (all stat mutations are commutative increments);
    - every dirty/prefetch/inner-sharer update is dropped (see
      :func:`_lean_walk_eligible`), L1 recency runs on the 40320-state
      LRU permutation FSM, L2 PLRU victims and touches are table
      lookups, and the LLC partition mask is captured at build time;
    - back-invalidation visits only the victim's sharer bits, with a
      fast path for the common self-owned victim.

    Returns ``(walk, flush, report)`` where ``report()`` gives the
    ``(l1_hits, l2_hits, llc_hits, llc_misses)`` level counts and
    ``flush()`` must run when the replay ends or the masks change.
    """
    l1 = hierarchy.l1[core]
    l2 = hierarchy.l2[core]
    llc = hierarchy.llc.storage
    mbits = hierarchy.llc._mask_bits[core]

    h = hierarchy
    cores_range = range(h.num_cores)
    core_bit = 1 << core
    l1_objs = list(h.l1)
    l2_objs = list(h.l2)
    inner_l1_lookup = [lvl._lookup for lvl in l1_objs]
    inner_l2_lookup = [lvl._lookup for lvl in l2_objs]
    l1_inval = [lvl.invalidate for lvl in l1_objs]
    l2_inval = [lvl.invalidate for lvl in l2_objs]
    own_l1_inval = l1_inval[core]
    own_l2_inval = l2_inval[core]

    l1_mod = l1._mod_mask
    l1_full = l1._full_mask
    l1_lookup, l1_tags = l1._lookup, l1._tags
    l1_valid = l1._valid
    l1_stats = l1.stats
    l1_touch, l1_fill_of, _, _ = _lru8_tables()
    l1_state = _l1_perm_state(l1)

    l2_mod = l2._mod_mask
    l2_full = l2._full_mask
    l2_lookup, l2_tags = l2._lookup, l2._tags
    l2_valid = l2._valid
    l2_plru = l2._plru
    l2_stats = l2.stats
    _, l2_touch_of, l2_fill_of = _plru8_fill_tables(l2)

    llc_W = llc.num_ways
    llc_leaves = llc._leaves
    llc_lookup, llc_tags, llc_sharers = llc._lookup, llc._tags, llc._sharers
    llc_valid = llc._valid
    llc_plru = llc._plru
    llc_pset, llc_pclr = llc._plru_set, llc._plru_clear_inv
    llc_left, llc_right = llc._plru_left, llc._plru_right
    llc_stats = llc.stats
    llc_vmemo = _llc_victim_memo(llc._leaves, llc.num_ways, mbits)
    llc_vmemo_get = llc_vmemo.get

    prof = h.llc_profiler
    prof_observe = prof.observe if prof is not None else None

    lt0 = 4 + think_cycles
    lt1 = 12 + think_cycles
    lt2 = 30 + think_cycles
    lt3 = 200 + think_cycles

    h1 = h2 = h3 = m3 = ev1 = ev2 = ev3 = 0

    def walk(line, s3):
        nonlocal h1, h2, h3, m3, ev1, ev2, ev3
        # ---- L1 probe (LRU FSM, modulo) ---------------------------------
        s1 = line & l1_mod
        look1 = l1_lookup[s1]
        way = look1.get(line)
        if way is not None:
            h1 += 1
            l1_state[s1] = l1_touch[(l1_state[s1] << 3) + way]
            return lt0

        # ---- L2 probe (PLRU tables, modulo) -----------------------------
        s2 = line & l2_mod
        look2 = l2_lookup[s2]
        way = look2.get(line)
        if way is not None:
            h2 += 1
            l2_plru[s2] = l2_touch_of[(l2_plru[s2] << 3) + way]
            ret = lt1
        else:
            # ---- LLC probe (precomputed set index) ----------------------
            if prof_observe is not None:
                prof_observe(line, core)
            look3 = llc_lookup[s3]
            way = look3.get(line)
            if way is not None:
                h3 += 1
                llc_plru[s3] = (llc_plru[s3] | llc_pset[way]) & llc_pclr[way]
                llc_sharers[s3 * llc_W + way] |= core_bit  # add_sharer
                ret = lt2
            else:
                m3 += 1
                # ---- LLC fill (way-masked victim, inclusion) ------------
                valid3 = llc_valid[s3]
                inv = ~valid3 & mbits
                if inv:
                    # Mask way lists are ascending, so "first invalid in
                    # mask order" is the lowest set bit.
                    vbit = inv & -inv
                    victim = vbit.bit_length() - 1
                    llc_valid[s3] = valid3 | vbit
                    base = s3 * llc_W + victim
                else:
                    bits = llc_plru[s3]
                    victim = llc_vmemo_get(bits)
                    if victim is None:
                        node = 1
                        while node < llc_leaves:
                            go_right = (bits >> node) & 1
                            if go_right:
                                if not mbits & llc_right[node]:
                                    go_right = 0
                            elif not mbits & llc_left[node]:
                                go_right = 1
                            node = 2 * node + 1 if go_right else 2 * node
                        victim = node - llc_leaves
                        llc_vmemo[bits] = victim
                    base = s3 * llc_W + victim
                    old_tag = llc_tags[base]
                    old_sharers = llc_sharers[base]
                    ev3 += 1
                    del look3[old_tag]
                    # Inclusion: the victim leaves every inner cache.
                    if old_sharers == core_bit:
                        if old_tag in l1_lookup[old_tag & l1_mod]:
                            own_l1_inval(old_tag)
                        if old_tag in l2_lookup[old_tag & l2_mod]:
                            own_l2_inval(old_tag)
                    elif old_sharers:
                        sh = old_sharers
                        while sh:
                            low = sh & -sh
                            c = low.bit_length() - 1
                            sh ^= low
                            if old_tag in inner_l1_lookup[c][old_tag & l1_mod]:
                                l1_inval[c](old_tag)
                            if old_tag in inner_l2_lookup[c][old_tag & l2_mod]:
                                l2_inval[c](old_tag)
                    else:
                        for c in cores_range:
                            if old_tag in inner_l1_lookup[c][old_tag & l1_mod]:
                                l1_inval[c](old_tag)
                            if old_tag in inner_l2_lookup[c][old_tag & l2_mod]:
                                l2_inval[c](old_tag)
                llc_tags[base] = line
                llc_sharers[base] = core_bit
                look3[line] = victim
                llc_plru[s3] = (
                    llc_plru[s3] | llc_pset[victim]
                ) & llc_pclr[victim]
                ret = lt3

            # ---- L2 fill (demand fills land clean) ----------------------
            valid2 = l2_valid[s2]
            if valid2 == l2_full:
                packed = l2_fill_of[l2_plru[s2]]
                victim = packed & 7
                l2_plru[s2] = packed >> 3
                base = (s2 << 3) + victim
                ev2 += 1
                del look2[l2_tags[base]]
            else:
                vbit = ~valid2 & l2_full
                vbit &= -vbit
                victim = vbit.bit_length() - 1
                l2_valid[s2] = valid2 | vbit
                base = (s2 << 3) + victim
                l2_plru[s2] = l2_touch_of[(l2_plru[s2] << 3) + victim]
            l2_tags[base] = line
            look2[line] = victim

        # ---- L1 fill ----------------------------------------------------
        valid1 = l1_valid[s1]
        st = l1_state[s1]
        if valid1 == l1_full:
            packed = l1_fill_of[st]
            victim = packed & 7
            l1_state[s1] = packed >> 3
            base = (s1 << 3) + victim
            ev1 += 1
            del look1[l1_tags[base]]
        else:
            vbit = ~valid1 & l1_full
            vbit &= -vbit
            victim = vbit.bit_length() - 1
            l1_valid[s1] = valid1 | vbit
            base = (s1 << 3) + victim
            l1_state[s1] = l1_touch[(st << 3) + victim]
        l1_tags[base] = line
        look1[line] = victim
        return ret

    def flush():
        """Deposit counter deltas; materialize L1 stamps from the FSM."""
        nonlocal h1, h2, h3, m3, ev1, ev2, ev3
        m2 = h3 + m3
        m1 = h2 + m2
        _flush_level_deltas(l1_stats, h1, m1, ev1, 0, core)
        _flush_level_deltas(l2_stats, h2, m2, ev2, 0, core)
        _flush_level_deltas(llc_stats, h3, m3, ev3, 0, core)
        h1 = h2 = h3 = m3 = ev1 = ev2 = ev3 = 0
        _write_l1_stamps(l1, l1_state)

    def report():
        return h1, h2, h3, m3

    return walk, flush, report


# numpy mirrors of the recency tables for the native kernel, built once
# per process (keyed like their list-of-int counterparts).
_NP_TABLES = {}


def _np_lru8_tables():
    tables = _NP_TABLES.get("lru8")
    if tables is None:
        import numpy as np

        touch, fill, _, _ = _lru8_tables()
        tables = _NP_TABLES["lru8"] = (
            np.asarray(touch, dtype=np.int32),
            np.asarray(fill, dtype=np.int32),
        )
    return tables


def _np_plru8_tables(lvl):
    key = ("plru8", lvl._leaves, lvl._full_mask)
    tables = _NP_TABLES.get(key)
    if tables is None:
        import numpy as np

        _, touch_of, fill_of = _plru8_fill_tables(lvl)
        tables = _NP_TABLES[key] = (
            np.asarray(touch_of, dtype=np.int32),
            np.asarray(fill_of, dtype=np.int32),
        )
    return tables


def _np_llc_geometry(llc):
    key = ("llcgeo", llc._leaves, llc.num_ways)
    tables = _NP_TABLES.get(key)
    if tables is None:
        import numpy as np

        tables = _NP_TABLES[key] = (
            np.asarray(llc._plru_set, dtype=np.int64),
            np.asarray(llc._plru_clear_inv, dtype=np.int64),
            np.asarray(llc._plru_left, dtype=np.int64),
            np.asarray(llc._plru_right, dtype=np.int64),
        )
    return tables


def _l1_perm_state(l1):
    """Per-set 8-way LRU permutation-FSM state from the stamp array
    (stamps are unique per set; descending stamp = most recent first)."""
    l1_perm_index = _lru8_tables()[3]
    l1_stamp = l1._stamp
    state = [0] * l1.num_sets
    for s in range(l1.num_sets):
        seg = l1_stamp[s << 3:(s << 3) + 8]
        order = sorted(range(8), key=seg.__getitem__, reverse=True)
        state[s] = l1_perm_index[tuple(order)]
    return state


def _write_l1_stamps(l1, state):
    """Rewrite the L1 stamp array from per-set permutation-FSM states —
    the inverse of :func:`_l1_perm_state` — so object-path code (and the
    next walk build) sees the recency order the FSM tracked."""
    perms = _lru8_tables()[2]
    l1_stamp = l1._stamp
    clock = l1._clock
    top = clock + 7
    for s in range(len(state)):
        perm = perms[state[s]]
        base = s << 3
        for rank in range(8):
            l1_stamp[base + perm[rank]] = top - rank
    l1._clock = clock + 8


def _rebuild_lookup(lookup, tags, valid, num_ways):
    """Regenerate per-set tag->way dicts from flat tag/valid state."""
    full = (1 << num_ways) - 1
    ways = tuple(range(num_ways))
    pos = 0
    for s in range(len(valid)):
        d = lookup[s]
        d.clear()
        v = valid[s]
        if v == full:
            d.update(zip(tags[pos:pos + num_ways], ways))
        else:
            while v:
                low = v & -v
                v ^= low
                w = low.bit_length() - 1
                d[tags[pos + w]] = w
        pos += num_ways


# ---------------------------------------------------------------------------
# Epoch-resumable N-domain replay (multiwalk.c + pure-Python reference)
# ---------------------------------------------------------------------------

# dom[] per-domain slot offsets; must match the D_* enum in multiwalk.c.
_DOM_STRIDE = 20
_D_MASK = 2
_D_POS, _D_LIVE, _D_VTIME = 9, 10, 11
_D_H1 = 12  # h1, h2, h3, m3, e1, e2, e3 follow contiguously
_D_E1 = 16
# cfg[] per-cell scalars; must match the CFG_* enum in multiwalk.c.
_CFG_SLOTS = 7
_CFG_STOP = 6
# sched[] per-cell slots; must match the SCHED_* enum in multiwalk.c.
_SCHED_SLOTS = 2
_SCHED_ISSUED, _SCHED_FILLED = 0, 1


def _epoch_replay_supported(hierarchy, cores):
    """Guards shared by both epoch drivers (the native ones add their own)."""
    if len(set(cores)) != len(cores):
        return False
    for core in cores:
        if not _pack_walk_supported(hierarchy, core):
            return False
        if not _lean_walk_eligible(hierarchy, core):
            return False
    return True


def _plain_column(col):
    """A plain Python list view of a pack column (lists pass through)."""
    if isinstance(col, list):
        return col
    tolist = getattr(col, "tolist", None)
    return tolist() if tolist is not None else list(col)


class PythonEpochReplay:
    """Reference epoch driver over the lean pack-walk closures.

    Implements the exact scheduler of ``multiwalk.c`` — linear scan for
    the minimum ``(vtime, slot)`` over live domains, exhausted
    non-repeating domains retiring without issuing, ``stop_at`` as an
    absolute issued-access target — over the per-core closures from
    :func:`_build_lean_pack_walk`. Virtual times and slot keys are
    unique, so the scan order equals the ``(vtime, slot)`` heap order of
    :meth:`TraceEngine.run` and replays are bit-identical to both that
    reference and the native kernel.

    It is the only epoch driver that accepts an attached LLC profiler:
    the lean walks report every LLC probe to it, exactly as the fused
    walk does, so a profiled pass replays here.

    The lean closures capture the LLC way-mask bits at build time, so
    :meth:`refresh_masks` synchronizes counters and recency state back
    into the hierarchy and rebuilds every walk against the new masks —
    a representation hand-off, not a cache flush: every resident line
    and the full recency order survive, which is the Section 2.1
    mask-change contract the native kernel gets for free.
    """

    native = False

    def __init__(self, hierarchy, cores, thinks, lines, sets, lengths,
                 repeats):
        self._h = hierarchy
        self._cores = list(cores)
        self._thinks = list(thinks)
        self._lines = [_plain_column(col) for col in lines]
        self._sets = [_plain_column(col) for col in sets]
        self._lengths = [int(n) for n in lengths]
        self._repeats = [bool(r) for r in repeats]
        n = len(self._cores)
        self._positions = [0] * n
        self._vtimes = [0] * n
        self._lives = [bool(x) for x in self._lengths]
        self._issued = 0
        self._totals = [[0, 0, 0, 0] for _ in range(n)]
        self._build_walks()

    def _build_walks(self):
        built = [
            _build_lean_pack_walk(self._h, core, think)
            for core, think in zip(self._cores, self._thinks)
        ]
        self._walks = [b[0] for b in built]
        self._flushes = [b[1] for b in built]
        self._reports = [b[2] for b in built]

    @property
    def issued(self):
        return self._issued

    def vtimes(self):
        return list(self._vtimes)

    def counters(self, slot):
        """Cumulative ``(l1_hits, l2_hits, llc_hits, llc_misses)``."""
        t = self._totals[slot]
        r = self._reports[slot]()
        return (t[0] + r[0], t[1] + r[1], t[2] + r[2], t[3] + r[3])

    def run_epoch(self, stop_at):
        """Advance until ``issued == stop_at`` or every domain has
        retired; returns the total issued so far. Call again to resume
        exactly."""
        walks = self._walks
        lines, sets = self._lines, self._sets
        positions, vtimes = self._positions, self._vtimes
        lives, lengths, repeats = self._lives, self._lengths, self._repeats
        nslots = len(walks)
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
            vtimes[best] = bt + walks[best](lines[best][i], sets[best][i])
            positions[best] = i + 1
            issued += 1
        self._issued = issued
        return issued

    def _sync(self):
        """Bank level counters and push recency state into the levels."""
        for i in range(len(self._cores)):
            r = self._reports[i]()
            t = self._totals[i]
            t[0] += r[0]
            t[1] += r[1]
            t[2] += r[2]
            t[3] += r[3]
            self._flushes[i]()

    def refresh_masks(self):
        """Re-read the hierarchy's way masks; state carries over intact."""
        self._sync()
        self._build_walks()

    def llc_resident(self):
        return sorted(self._h.llc.storage.resident_lines())

    def finish(self):
        """Deposit stat deltas; returns ``(level counts, vtimes)``."""
        self._sync()
        counts = tuple(tuple(t) for t in self._totals)
        return counts, tuple(self._vtimes)


def build_python_epoch_replay(hierarchy, cores, thinks, lines, sets,
                              lengths, repeats):
    """The pure-Python reference epoch driver, or ``None`` if the lean
    preconditions (distinct cores, read-only state, 8-way mod-indexed
    inner levels) don't hold."""
    if not _epoch_replay_supported(hierarchy, cores):
        return None
    return PythonEpochReplay(
        hierarchy, cores, thinks, lines, sets, lengths, repeats
    )


def build_native_epoch_replay(hierarchy, cores, thinks, lines, sets,
                              lengths, repeats):
    """The native single co-run epoch driver: a one-cell
    :class:`NativeEpochBatchReplay` over the hierarchy's current state,
    or ``None`` whenever :func:`build_native_epoch_batch_replay` would
    decline. Same interface as :class:`PythonEpochReplay`."""
    cell = {
        "cores": list(cores),
        "thinks": list(thinks),
        "lines": lines,
        "sets": sets,
        "lengths": lengths,
        "repeats": repeats,
        "stop": 0,
    }
    return build_native_epoch_batch_replay(hierarchy, [cell], threads=1)


class TemplateBank:
    """One snapshot of a kernel hierarchy's state, in the batch kernels'
    bank layout (:meth:`layout`): the state every batch cell starts
    from.

    The batch kernels copy this one bank into each cell's (or each
    worker's) bank inside their threaded work items, so building a
    roster costs one snapshot, not one per cell. The snapshot is taken
    on first use of :attr:`bank` and kept: reuse a ``TemplateBank`` only
    while its hierarchy stays untouched, as the roster drivers do with
    their one cold template per process. Batch cells never write back
    into it.
    """

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy
        self._bank = None

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
        import itertools

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
        return np.fromiter(
            itertools.chain.from_iterable(sections), dtype=np.int64,
            count=self.layout()[1],
        )


class NativeBatchReplay:
    """One-call batched replay over the compiled ``batchwalk.c`` kernel.

    Holds R independent replay cells — the allocations of a way sweep,
    or a roster of unrelated co-runs — over ONE :class:`TemplateBank`:
    each cell's work item copies the template into its worker thread's
    own bank before replaying, so every cell starts from an identical
    copy, no cell can observe another, and a roster holds one bank per
    worker thread rather than one per cell. This class and its epoch
    subclass are the only owners of that layout. :meth:`run` is a single
    ``ctypes`` call; the kernel threads over cells but each writes only
    its own dom/sched slice, so the per-cell ``(counters, vtimes)`` read
    back afterwards are bit-identical to replaying each cell alone, for
    any thread count.

    Batch cells are throwaway measurements with no hierarchy writeback;
    only a one-cell :class:`NativeEpochBatchReplay` writes its state
    back (``finish()``).
    """

    native = True
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
        R = len(cells)
        threads = min(threads, R)
        n_max = max(len(cell["cores"]) for cell in cells)
        self._h = h
        self._template = template
        self._cells = cells
        self._fn = fn
        self._n_max = n_max

        first_core = cells[0]["cores"][0]
        l1_touch, l1_fill = _np_lru8_tables()
        l2_touch, l2_fill = _np_plru8_tables(h.l2[first_core])
        pset, pclr, pleft, pright = _np_llc_geometry(llc)
        l1_sets = h.l1[first_core].num_sets
        l2_sets = h.l2[first_core].num_sets
        self._layout, stride = template.layout()
        nbanks = R if self._bank_per_cell else threads
        # Filled from the template inside the kernel, never read unfilled.
        banks = np.empty(nbanks * stride, dtype=i64)

        cfg = np.zeros((R, _CFG_SLOTS), dtype=i64)
        cfg[:, 0] = [len(cell["cores"]) for cell in cells]
        cfg[:, 1] = llc._leaves
        cfg[:, 2] = llc.num_ways
        cfg[:, 3] = h.l1[first_core]._mod_mask
        cfg[:, 4] = h.l2[first_core]._mod_mask
        cfg[:, 5] = num_cores
        cfg[:, _CFG_STOP] = [int(cell["stop"]) for cell in cells]
        dom = np.zeros((R, n_max, _DOM_STRIDE), dtype=i64)
        line_ptrs = np.zeros((R, n_max), dtype=np.uintp)
        set_ptrs = np.zeros((R, n_max), dtype=np.uintp)
        columns = {}  # id(column) -> contiguous int64 copy or view

        def _col(col):
            arr = columns.get(id(col))
            if arr is None:
                arr = columns[id(col)] = np.ascontiguousarray(
                    np.asarray(col, dtype=i64)
                )
            return arr.ctypes.data

        mask_bits = h.llc._mask_bits
        for r, cell in enumerate(cells):
            cell_masks = cell.get("mask_bits")
            lengths = cell["lengths"]
            for slot, (core, think) in enumerate(
                zip(cell["cores"], cell["thinks"])
            ):
                n = int(lengths[slot])
                dom[r, slot, :_D_LIVE + 1] = (
                    core,
                    1 << core,
                    mask_bits[core] if cell_masks is None
                    else cell_masks[slot],
                    4 + think, 12 + think, 30 + think, 200 + think,
                    n,
                    bool(cell["repeats"][slot]),
                    0,
                    1 if n else 0,
                )
                line_ptrs[r, slot] = _col(cell["lines"][slot])
                set_ptrs[r, slot] = _col(cell["sets"][slot])

        sched = np.zeros((R, _SCHED_SLOTS), dtype=i64)
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
            sched,
        )
        self._keep = (arrays, columns)
        self._args = [ctypes.c_void_p(a.ctypes.data) for a in arrays]

    def cell_result(self, r):
        """Cell ``r``'s ``(counts, vtimes)`` read from its dom slice,
        where ``counts`` is a per-domain tuple of ``(l1_hits, l2_hits,
        llc_hits, llc_misses)`` — the same shape the epoch drivers'
        ``finish`` reports, without any hierarchy writeback."""
        dom = self._dom[r, :len(self._cells[r]["cores"])]
        return (
            tuple(map(tuple, dom[:, _D_H1:_D_H1 + 4].tolist())),
            tuple(dom[:, _D_VTIME].tolist()),
        )

    def run(self):
        """One ctypes call; returns ``[(counts, vtimes), ...]`` per cell."""
        self._fn(*self._args)
        return [self.cell_result(r) for r in range(len(self._cells))]

    @property
    def issued(self):
        return int(self._sched[:, _SCHED_ISSUED].sum())


def _check_mask_word(bits, num_ways):
    """Raise unless ``bits`` names a non-empty subset of ``num_ways``
    ways: the kernels pick LLC victim ways from the word unchecked."""
    if not 0 < bits <= (1 << num_ways) - 1:
        raise ValidationError(
            f"LLC way-mask word {bits:#x} must name a non-empty subset "
            f"of {num_ways} ways"
        )


def _check_cell_columns(cell, num_cores, num_sets, scanned):
    """Raise unless every domain's core exists and its line and set
    columns are equally long, hold at least ``lengths[slot]`` accesses,
    and name only LLC sets in ``[0, num_sets)``: the kernels use the
    core, ``lengths[slot]`` entries of both columns and every set index
    unchecked. ``scanned`` holds the ids of the set columns already
    range-checked in this build, so cells sharing a pack scan it once."""
    import numpy as np

    cores = cell["cores"]
    lines, sets, lengths = cell["lines"], cell["sets"], cell["lengths"]
    if not len(lines) == len(sets) == len(lengths) == len(cores):
        raise ValidationError(
            "need one line column, set column and length per cell domain"
        )
    for slot, core in enumerate(cores):
        if not 0 <= core < num_cores:
            raise ValidationError(
                f"domain {slot}: core {core} outside [0, {num_cores})"
            )
        n = int(lengths[slot])
        if not len(lines[slot]) == len(sets[slot]) >= n >= 0:
            raise ValidationError(
                f"domain {slot}: line column ({len(lines[slot])}) and set "
                f"column ({len(sets[slot])}) must be equally long and "
                f"cover length {n}"
            )
        col = sets[slot]
        if id(col) in scanned:
            continue
        scanned.add(id(col))
        arr = np.asarray(col)
        if arr.size and not (0 <= arr.min() and arr.max() < num_sets):
            raise ValidationError(
                f"domain {slot}: set column indexes outside "
                f"[0, {num_sets})"
            )


def _batch_cells_supported(hierarchy, cells):
    """Shared preconditions of the batched builders (one bank layout).

    Every cell's cores, effective mask words and columns are validated
    first: a bad word, a short column or an out-of-range core or set
    index raises :class:`ValidationError` rather than reaching the
    kernel. The template's state is then checked once per distinct core
    the cells use, not once per cell.
    """
    h = hierarchy
    llc = h.llc.storage
    default_bits = h.llc._mask_bits
    scanned = set()
    for cell in cells:
        _check_cell_columns(cell, h.num_cores, llc.num_sets, scanned)
        cores = cell["cores"]
        words = cell.get("mask_bits")
        if words is None:
            words = [default_bits[core] for core in cores]
        elif len(words) != len(cores):
            raise ValidationError("need one mask word per cell domain")
        for bits in words:
            _check_mask_word(bits, llc.num_ways)
    if h.llc_profiler is not None or llc.num_ways > 62:
        return False
    used = set()
    for cell in cells:
        cores = cell["cores"]
        if not cores or len(cores) > 16 or len(set(cores)) != len(cores):
            return False
        used.update(cores)
    if not _epoch_replay_supported(h, sorted(used)):
        return False
    l1_mod = h.l1[0]._mod_mask
    l2_mod = h.l2[0]._mod_mask
    for c in range(h.num_cores):
        l1 = h.l1[c]
        l2 = h.l2[c]
        if not isinstance(l1, KernelCacheLevel) or not isinstance(
            l2, KernelCacheLevel
        ):
            return False
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
    if not cells or not _batch_cells_supported(template.hierarchy, cells):
        return None

    from repro.cache import native

    fn = kernel_fn()
    if fn is None:
        return None
    threads = native.resolve_native_threads(len(cells), threads)
    return cls(template, cells, threads, fn)


def build_native_batch_replay(hierarchy, cells, threads=None):
    """Batched driver over ``batchwalk.c``, or ``None`` when any cell
    fails the epoch-replay preconditions, an LLC profiler is attached,
    or the kernel is unavailable. A mask word outside the LLC's ways, a
    short column, or a core or set index out of range raises
    :class:`ValidationError`.

    ``hierarchy`` is the template every cell starts from: a kernel
    :class:`~repro.cache.hierarchy.CacheHierarchy`, snapshotted by this
    call, or a :class:`TemplateBank` of one, reused as is. ``cells`` is
    a list of dicts with keys ``cores``, ``thinks``, ``lines``,
    ``sets``, ``lengths``, ``repeats``, ``stop`` and optionally
    ``mask_bits`` (per-slot LLC way-mask words; defaults to the
    hierarchy's current masks). ``threads`` follows
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

    A one-cell batch (:func:`build_native_epoch_replay`) is the native
    single co-run driver. Its cell-0 methods — :meth:`run_epoch`,
    :meth:`counters`, :meth:`vtimes`, :meth:`refresh_masks`,
    :meth:`llc_resident` and :meth:`finish` — mirror
    :class:`PythonEpochReplay`, and :meth:`finish` writes the final
    state back into the hierarchy's :class:`KernelCacheLevel` objects.
    """

    _bank_per_cell = True

    def __init__(self, template, cells, threads, fn):
        import ctypes

        import numpy as np

        super().__init__(template, cells, threads, fn)
        active = np.zeros(len(cells) + 1, dtype=np.int64)
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

    def _state(self, r):
        """Cell ``r``'s bank sections by name; the template's until the
        kernel has filled the cell's own bank."""
        bank = self._banks[r] if self._sched[r, _SCHED_FILLED] else (
            self._template.bank
        )
        return {name: bank[cut] for name, cut in self._layout.items()}

    # -- the one-cell co-run interface (cell 0) ---------------------------

    def run_epoch(self, stop_at):
        """Advance until ``issued == stop_at`` or every domain has
        retired; returns the total issued so far. Call again to resume
        exactly."""
        self.set_stop(0, stop_at)
        self.run_active((0,))
        return self.issued_of(0)

    def vtimes(self):
        return list(self.cell_result(0)[1])

    def counters(self, slot):
        """Cumulative ``(l1_hits, l2_hits, llc_hits, llc_misses)``."""
        return tuple(self._dom[0, slot, _D_H1:_D_H1 + 4].tolist())

    def refresh_masks(self):
        """Re-read the hierarchy's way masks; nothing else changes."""
        mask_bits = self._h.llc._mask_bits
        for slot, core in enumerate(self._cells[0]["cores"]):
            self.set_mask_bits(0, slot, mask_bits[core])

    def llc_resident(self):
        state = self._state(0)
        tags, valid = state["llc_tags"], state["llc_valid"]
        W = self._h.llc.storage.num_ways
        lines = []
        for s in range(self._h.llc.storage.num_sets):
            v = int(valid[s])
            base = s * W
            while v:
                low = v & -v
                v ^= low
                lines.append(int(tags[base + low.bit_length() - 1]))
        return sorted(lines)

    def finish(self):
        """Write cell 0's state back into the hierarchy; call exactly
        once. Returns ``(level counts, vtimes)``."""
        h = self._h
        llc = h.llc.storage
        num_cores = h.num_cores
        state = self._state(0)
        llc._tags[:] = state["llc_tags"].tolist()
        llc._sharers[:] = state["llc_sharers"].tolist()
        llc._valid[:] = state["llc_valid"].tolist()
        llc._plru[:] = state["llc_plru"].tolist()
        _rebuild_lookup(llc._lookup, llc._tags, llc._valid, llc.num_ways)
        inner = {
            name: state[name].reshape(num_cores, -1)
            for name in ("l1_tags", "l1_valid", "l1_state",
                         "l2_tags", "l2_valid", "l2_plru")
        }
        bi = state["bi"].tolist()
        for c in range(num_cores):
            l1 = h.l1[c]
            l1._tags[:] = inner["l1_tags"][c].tolist()
            l1._valid[:] = inner["l1_valid"][c].tolist()
            _rebuild_lookup(l1._lookup, l1._tags, l1._valid, 8)
            if bi[c]:
                l1.stats.back_invalidations += bi[c]
            l2 = h.l2[c]
            l2._tags[:] = inner["l2_tags"][c].tolist()
            l2._valid[:] = inner["l2_valid"][c].tolist()
            _rebuild_lookup(l2._lookup, l2._tags, l2._valid, 8)
            if bi[num_cores + c]:
                l2.stats.back_invalidations += bi[num_cores + c]
        counts = []
        for slot, core in enumerate(self._cells[0]["cores"]):
            h1, h2, h3, m3 = self.counters(slot)
            e1, e2, e3 = self._dom[0, slot, _D_E1:_D_E1 + 3].tolist()
            m2 = h3 + m3
            m1 = h2 + m2
            l1 = h.l1[core]
            _flush_level_deltas(l1.stats, h1, m1, e1, 0, core)
            _flush_level_deltas(h.l2[core].stats, h2, m2, e2, 0, core)
            _flush_level_deltas(llc.stats, h3, m3, e3, 0, core)
            counts.append((h1, h2, h3, m3))
            h.l2[core]._plru[:] = inner["l2_plru"][core].tolist()
            _write_l1_stamps(l1, inner["l1_state"][core].tolist())
        return tuple(counts), tuple(self.vtimes())


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


def make_cache_level(
    backend,
    name,
    capacity_bytes,
    num_ways,
    line_size=64,
    replacement="lru",
    indexing="mod",
):
    """Construct a cache level for the chosen backend: ``object`` is the
    reference model, ``kernel`` the flat-array kernel."""
    if backend == "kernel":
        return KernelCacheLevel(
            name, capacity_bytes, num_ways, line_size, replacement, indexing
        )
    if backend == "object":
        return CacheLevel(
            name, capacity_bytes, num_ways, line_size, replacement, indexing
        )
    raise ConfigurationError(
        f"unknown cache backend {backend!r}; pick one of {BACKENDS}"
    )
