"""The flat-array kernel level is bit-identical to the reference model.

Every test drives :class:`KernelCacheLevel` and the object model in
``tests/_refcache.py`` through the same operation sequence and compares
them after EVERY step — return values, stats, occupancy, and resident
lines — across replacement policies, indexing schemes, and way masks,
then at hierarchy level with prefetchers on and off.
"""

import pytest

from repro.cache.block import MemoryAccess
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.kernel import KernelCacheLevel
from repro.cache.llc import WayMask
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.rng import DeterministicRng

from .._refcache import CacheLevel, reference_hierarchy


def level_pair(replacement, indexing, num_ways=8, num_sets=16):
    capacity = num_sets * num_ways * 64
    kwargs = dict(replacement=replacement, indexing=indexing)
    return (
        CacheLevel("ref", capacity, num_ways, **kwargs),
        KernelCacheLevel("ker", capacity, num_ways, **kwargs),
    )


def state_of(level):
    return (
        sorted(level.stats.snapshot().items()),
        sorted(level.stats.per_domain_accesses.items()),
        sorted(level.stats.per_domain_misses.items()),
        level.occupancy(),
        level.occupancy_by_way(),
        sorted(level.resident_lines()),
    )


def evicted_key(evicted):
    if evicted is None:
        return None
    return (evicted.tag, evicted.valid, evicted.dirty, evicted.sharers)


def run_locked_step(ref, ker, rng, masks, step):
    """One pseudo-random op applied to both levels, compared exactly."""
    op = rng.integers(0, 10)
    line = rng.integers(0, 400)
    domain = rng.integers(0, 2)
    is_write = rng.integers(0, 4) == 0
    allowed = masks[domain] if masks else None
    if op <= 4:  # probe (the most common op)
        assert ref.access(line, is_write, domain=domain) == ker.access(
            line, is_write, domain=domain
        ), f"step {step}: hit/miss diverged on line {line}"
        if not ref.contains(line):
            a = ref.fill(line, is_write=is_write, domain=domain,
                         allowed_ways=allowed, sharer=domain)
            b = ker.fill(line, is_write=is_write, domain=domain,
                         allowed_ways=allowed, sharer=domain)
            assert evicted_key(a) == evicted_key(b), f"step {step}: victims differ"
    elif op <= 6:  # prefetch-style fill
        a = ref.fill(line, domain=domain, allowed_ways=allowed, prefetch=True)
        b = ker.fill(line, domain=domain, allowed_ways=allowed, prefetch=True)
        assert evicted_key(a) == evicted_key(b)
    elif op == 7:
        assert ref.invalidate(line) == ker.invalidate(line)
    elif op == 8:
        assert ref.mark_dirty(line) == ker.mark_dirty(line)
    else:
        ref.add_sharer(line, domain)
        ker.add_sharer(line, domain)
        assert ref.sharers_of(line) == ker.sharers_of(line)
    assert state_of(ref) == state_of(ker), f"step {step}: state diverged"


@pytest.mark.parametrize("replacement", ["lru", "plru"])
@pytest.mark.parametrize("indexing", ["mod", "hash"])
@pytest.mark.parametrize("masked", [False, True])
class TestStepwiseIdentity:
    def test_locked_step_sequence(self, replacement, indexing, masked):
        ref, ker = level_pair(replacement, indexing)
        masks = {0: [0, 1, 2, 3, 4], 1: [4, 5, 6, 7]} if masked else None
        rng = DeterministicRng(seed=1234)
        for step in range(1500):
            run_locked_step(ref, ker, rng, masks, step)

    def test_mask_reallocation_mid_sequence(self, replacement, indexing, masked):
        """Masks change between bursts; no flush, still bit-identical."""
        ref, ker = level_pair(replacement, indexing)
        schedules = [
            {0: [0, 1, 2], 1: [3, 4, 5, 6, 7]},
            {0: [0, 1, 2, 3, 4, 5], 1: [6, 7]},
            {0: [7], 1: [0, 1, 2, 3, 4, 5, 6]},
        ]
        rng = DeterministicRng(seed=99)
        for masks in schedules if masked else [None] * 3:
            for step in range(400):
                run_locked_step(ref, ker, rng, masks, step)


class TestVictimErrors:
    """The kernel replicates the reference policies' error behaviour."""

    @pytest.mark.parametrize("replacement", ["lru", "plru"])
    def test_empty_allowed_ways_rejected(self, replacement):
        ref, ker = level_pair(replacement, "mod", num_ways=4, num_sets=4)
        for level in (ref, ker):
            for line in range(4 * 4 * 2):  # fill everything
                if not level.access(line):
                    level.fill(line)
            with pytest.raises(ValidationError):
                level.fill(10_000, allowed_ways=[])

    def test_out_of_range_allowed_ways_rejected_lru(self):
        ref, ker = level_pair("lru", "mod", num_ways=4, num_sets=4)
        for level in (ref, ker):
            for line in range(64):
                if not level.access(line):
                    level.fill(line)
        with pytest.raises(ValidationError):
            ker.fill(10_000, allowed_ways=[9])

    def test_unknown_policy_and_indexing_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 64 * 64, 4, replacement="fifo")
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 64 * 64, 4, indexing="skew")
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 1000, 4)  # non-divisible geometry


TINY = dict(num_cores=2, l1_bytes=2 * 1024, l2_bytes=8 * 1024, llc_bytes=48 * 1024)


def tiny_hierarchy(model):
    if model == "object":
        return reference_hierarchy(**TINY)
    return CacheHierarchy(**TINY)


def hierarchy_state(h):
    levels = list(h.l1) + list(h.l2) + [h.llc.storage]
    return (
        [sorted(lvl.stats.snapshot().items()) for lvl in levels],
        [lvl.occupancy_by_way() for lvl in levels],
        [sorted(lvl.resident_lines()) for lvl in levels],
    )


def mixed_stream(n=4000, seed=5):
    rng = DeterministicRng(seed=seed)
    stream = []
    for i in range(n):
        if rng.integers(0, 3) == 0:
            addr = rng.integers(0, 1 << 18)  # random within 256 KB
        else:
            addr = (i * 64) % (1 << 20)  # streaming sweep
        stream.append(
            MemoryAccess(
                address=addr,
                is_write=rng.integers(0, 4) == 0,
                pc=0x400 + (i % 7) * 4,
                tid=rng.integers(0, 4),
            )
        )
    return stream


class TestHierarchyIdentity:
    @pytest.mark.parametrize("prefetchers", [False, True])
    def test_full_protocol_stepwise(self, prefetchers):
        """access() walks agree step by step, prefetchers on and off."""
        ref = tiny_hierarchy("object")
        ker = tiny_hierarchy("kernel")
        for h in (ref, ker):
            h.set_prefetchers(enabled=prefetchers)
            h.set_way_mask(0, WayMask.contiguous(9, 0))
            h.set_way_mask(1, WayMask.contiguous(3, 9))
        for i, acc in enumerate(mixed_stream()):
            a = ref.access(acc)
            b = ker.access(acc)
            assert (a.hit_level, a.latency, a.llc_victim_line) == (
                b.hit_level,
                b.latency,
                b.llc_victim_line,
            ), f"access {i} diverged"
        assert hierarchy_state(ref) == hierarchy_state(ker)

    def test_fused_fast_path_matches_object_protocol(self):
        """The kernel's fast walk == the reference model's full access()."""
        ref = tiny_hierarchy("object")
        ker = tiny_hierarchy("kernel")
        for h in (ref, ker):
            h.set_prefetchers(enabled=False)
            h.set_way_mask(0, WayMask.contiguous(5, 0))
            h.set_way_mask(1, WayMask.contiguous(7, 5))
        for i, acc in enumerate(mixed_stream(seed=11)):
            core = acc.tid // 2
            a = ref.access(acc)
            level, latency = ker.access_fast(
                acc.line_address, acc.is_write, core
            )
            assert (a.hit_level, a.latency) == (level, latency), f"access {i}"
        assert hierarchy_state(ref) == hierarchy_state(ker)

    def test_run_trace_batched_totals_match(self):
        stream = mixed_stream(n=3000, seed=8)
        totals = {}
        for model in ("object", "kernel"):
            h = tiny_hierarchy(model)
            h.set_prefetchers(enabled=False)
            totals[model] = h.run_trace(stream)
        assert totals["object"] == totals["kernel"]


def test_lru8_tables_match_the_permutation_definition():
    """The vectorized 8-way LRU FSM tables equal the direct definition:
    touching way w moves it to the front, a fill evicts the last way."""
    import itertools

    from repro.cache.kernel import _lru8_tables

    touch, fill = _lru8_tables()
    perms = list(itertools.permutations(range(8)))
    index = {p: i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        for w in range(8):
            front = (w,) + tuple(x for x in p if x != w)
            assert touch[i * 8 + w] == index[front]
        victim = p[-1]
        assert fill[i] == (touch[i * 8 + victim] << 3) | victim


def test_l1_perm_state_is_the_lexicographic_rank_of_the_order():
    """A set's FSM state is the rank of its recency order (descending
    stamps) among the 8! orders in lexicographic order."""
    import itertools
    import random

    from repro.cache.kernel import KernelCacheLevel, _l1_perm_state

    perms = list(itertools.permutations(range(8)))
    index = {p: i for i, p in enumerate(perms)}
    l1 = KernelCacheLevel("L1", 32 * 1024, 8)
    rng = random.Random(5)
    orders = [tuple(rng.sample(range(8), 8)) for _ in range(l1.num_sets)]
    orders[:2] = [perms[0], perms[-1]]
    for s, order in enumerate(orders):
        for recency, way in enumerate(order):
            l1._stamp[s * 8 + way] = 1000 * s + 8 - recency
    assert _l1_perm_state(l1) == [index[order] for order in orders]
