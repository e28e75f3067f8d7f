"""Way-mask edge cases, exercised identically on both cache models.

The paper's partitioning contract has three sharp edges: a mask can
never be empty, a single-way partition must still function (the smallest
CAT allocation), and reassigning masks never flushes data — old lines
keep hitting from ways the domain no longer owns while new fills are
confined. Every test here runs against the reference object model
(``tests/_refcache.py``) and the flat-array kernel level and expects the
exact same behaviour, including the error messages the replacement
policies raise.
"""

import pytest

from repro.cache.kernel import KernelCacheLevel
from repro.cache.llc import PartitionedLLC, WayMask
from repro.util.errors import ValidationError

from .._refcache import CacheLevel, reference_level

LEVELS = {"object": CacheLevel, "kernel": KernelCacheLevel}
MODELS = list(LEVELS)
NUM_WAYS = 8
NUM_SETS = 16
CAPACITY = NUM_SETS * NUM_WAYS * 64


def small_llc(model, num_domains=2, replacement="plru"):
    llc = PartitionedLLC(
        capacity_bytes=CAPACITY,
        num_ways=NUM_WAYS,
        num_domains=num_domains,
        replacement=replacement,
        indexing="mod",  # predictable line -> set mapping for the asserts
    )
    if model == "object":
        llc.storage = reference_level(llc.storage)
    return llc


def fill_domain(llc, domain, lines):
    for line in lines:
        if not llc.access(line, domain=domain):
            llc.fill(line, domain=domain)


def ways_used(llc, lines):
    """The set of ways holding ``lines``, via the level's own lookup."""
    used = set()
    for line in lines:
        set_idx, way = llc.storage.find(line)
        if way is not None:
            used.add(way)
    return used


class TestEmptyMasks:
    def test_way_mask_type_rejects_empty(self):
        with pytest.raises(ValidationError, match="cannot be empty"):
            WayMask([])
        with pytest.raises(ValidationError):
            WayMask.contiguous(0, 0)
        with pytest.raises(ValidationError):
            WayMask.from_bits(0)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("replacement", ["lru", "plru"])
    def test_fill_with_no_allowed_ways_rejected(self, model, replacement):
        """An empty allowed set must fail in the victim policy, not hang
        or silently fall back to an unpartitioned fill."""
        level = LEVELS[model]("edge", CAPACITY, NUM_WAYS, replacement=replacement)
        for line in range(NUM_SETS * NUM_WAYS):  # no invalid ways left
            level.fill(line)
        with pytest.raises(
            ValidationError, match="at least one allowed way"
        ):
            level.fill(10_000, allowed_ways=[])

    @pytest.mark.parametrize("model", MODELS)
    def test_allowed_ways_outside_set_rejected(self, model):
        level = LEVELS[model]("edge", CAPACITY, NUM_WAYS, replacement="lru")
        for line in range(NUM_SETS * NUM_WAYS):
            level.fill(line)
        with pytest.raises(ValidationError, match="outside this set"):
            level.fill(10_000, allowed_ways=[NUM_WAYS + 3])


@pytest.mark.parametrize("model", MODELS)
class TestSingleWayPartitions:
    def test_occupancy_confined_to_one_way(self, model):
        llc = small_llc(model)
        llc.set_mask(0, WayMask([5], num_ways=NUM_WAYS))
        llc.set_mask(1, WayMask([w for w in range(NUM_WAYS) if w != 5],
                                num_ways=NUM_WAYS))
        lines = list(range(6 * NUM_SETS))
        fill_domain(llc, 0, lines)
        by_way = llc.storage.occupancy_by_way()
        assert by_way[5] == NUM_SETS  # every set's way 5 is full
        assert sum(by_way) == NUM_SETS  # and nothing else was touched

    def test_direct_mapped_domain_still_hits(self, model):
        """One way per set behaves as a direct-mapped cache: a working
        set of one line per set hits forever, two lines per set thrash."""
        llc = small_llc(model)
        llc.set_mask(0, WayMask([2], num_ways=NUM_WAYS))
        resident = list(range(NUM_SETS))  # one line per set under mod?
        fill_domain(llc, 0, resident)
        assert all(llc.access(line, domain=0) for line in resident)

    def test_hits_allowed_anywhere_despite_mask(self, model):
        """Partitioning constrains *replacement* only (paper section 2.1):
        a domain hits on lines resident in ways it does not own."""
        llc = small_llc(model)
        llc.set_mask(0, WayMask.contiguous(4, 0, num_ways=NUM_WAYS))
        llc.set_mask(1, WayMask.contiguous(4, 4, num_ways=NUM_WAYS))
        fill_domain(llc, 1, [7, 8, 9])
        assert llc.access(7, domain=0)
        assert llc.access(8, domain=0)


@pytest.mark.parametrize("model", MODELS)
class TestMaskReallocation:
    def test_reallocation_does_not_flush(self, model):
        llc = small_llc(model)
        llc.set_mask(0, WayMask.contiguous(2, 0, num_ways=NUM_WAYS))
        old_lines = list(range(2 * NUM_SETS))
        fill_domain(llc, 0, old_lines)
        occupancy_before = llc.storage.occupancy()

        llc.set_mask(0, WayMask.contiguous(2, 6, num_ways=NUM_WAYS))
        assert llc.storage.occupancy() == occupancy_before
        assert all(llc.access(line, domain=0) for line in old_lines)

    def test_new_fills_confined_to_new_ways(self, model):
        llc = small_llc(model)
        llc.set_mask(0, WayMask.contiguous(2, 0, num_ways=NUM_WAYS))
        old_lines = list(range(2 * NUM_SETS))
        fill_domain(llc, 0, old_lines)

        llc.set_mask(0, WayMask.contiguous(2, 6, num_ways=NUM_WAYS))
        new_lines = list(range(1000, 1000 + 2 * NUM_SETS))
        fill_domain(llc, 0, new_lines)
        assert ways_used(llc, new_lines) <= {6, 7}
        # Stale lines persist in the relinquished ways until another
        # domain's replacement reclaims them.
        assert ways_used(llc, old_lines) <= {0, 1}
        assert all(llc.access(line, domain=0) for line in old_lines)

    def test_shrunk_domain_cannot_evict_outside_its_mask(self, model):
        """After shrinking to one way, heavy traffic from the domain must
        never displace another domain's lines."""
        llc = small_llc(model)
        llc.set_mask(1, WayMask.contiguous(4, 4, num_ways=NUM_WAYS))
        victim_set = list(range(4 * NUM_SETS))
        fill_domain(llc, 1, victim_set)
        held_before = ways_used(llc, victim_set)

        llc.set_mask(0, WayMask([0], num_ways=NUM_WAYS))
        fill_domain(llc, 0, range(2000, 2000 + 8 * NUM_SETS))
        assert ways_used(llc, victim_set) == held_before
        assert all(llc.access(line, domain=1) for line in victim_set)

    def test_backends_agree_through_reallocation(self, model):
        """Same scenario on both models ends in the same resident set."""
        reference = small_llc("object")
        other = small_llc(model)
        for llc in (reference, other):
            llc.set_mask(0, WayMask.contiguous(3, 0, num_ways=NUM_WAYS))
            llc.set_mask(1, WayMask.contiguous(5, 3, num_ways=NUM_WAYS))
            fill_domain(llc, 0, range(3 * NUM_SETS))
            fill_domain(llc, 1, range(500, 500 + 5 * NUM_SETS))
            llc.set_mask(0, WayMask.contiguous(6, 0, num_ways=NUM_WAYS))
            llc.set_mask(1, WayMask.contiguous(2, 6, num_ways=NUM_WAYS))
            fill_domain(llc, 0, range(3 * NUM_SETS, 6 * NUM_SETS))
        assert sorted(reference.storage.resident_lines()) == sorted(
            other.storage.resident_lines()
        )
        assert reference.storage.occupancy_by_way() == (
            other.storage.occupancy_by_way()
        )
        assert sorted(reference.storage.stats.snapshot().items()) == sorted(
            other.storage.stats.snapshot().items()
        )
