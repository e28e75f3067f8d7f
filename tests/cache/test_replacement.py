import pytest

from .._refcache import PseudoLruTree, TrueLru
from repro.util.errors import ValidationError


class TestTrueLru:
    def test_initial_victim_is_last_way(self):
        assert TrueLru(4).victim() == 3

    def test_touch_moves_to_front(self):
        lru = TrueLru(4)
        lru.touch(3)
        assert lru.victim() != 3
        assert lru.recency_order()[0] == 3

    def test_victim_is_least_recent(self):
        lru = TrueLru(4)
        for way in (0, 1, 2, 3):
            lru.touch(way)
        assert lru.victim() == 0

    def test_victim_with_mask(self):
        lru = TrueLru(4)
        for way in (0, 1, 2, 3):
            lru.touch(way)
        # Way 0 is globally LRU but masked out.
        assert lru.victim(allowed_ways=[2, 3]) == 2

    def test_victim_empty_mask_rejected(self):
        with pytest.raises(ValidationError):
            TrueLru(4).victim(allowed_ways=[])

    def test_victim_mask_outside_set_rejected(self):
        with pytest.raises(ValidationError):
            TrueLru(4).victim(allowed_ways=[9])

    def test_zero_way_set_rejected(self):
        with pytest.raises(ValidationError):
            TrueLru(0)


class TestPseudoLruTree:
    def test_victim_avoids_recently_touched(self):
        plru = PseudoLruTree(8)
        plru.touch(3)
        assert plru.victim() != 3

    def test_victim_respects_mask(self):
        plru = PseudoLruTree(8)
        for _ in range(4):
            victim = plru.victim(allowed_ways=[5, 6])
            assert victim in (5, 6)
            plru.touch(victim)

    def test_repeated_touch_cycles_all_ways(self):
        """Touching every victim must eventually visit all ways."""
        plru = PseudoLruTree(8)
        seen = set()
        for _ in range(32):
            victim = plru.victim()
            seen.add(victim)
            plru.touch(victim)
        assert seen == set(range(8))

    def test_masked_victims_cycle_within_mask(self):
        plru = PseudoLruTree(12)
        mask = [2, 3, 4, 5, 6]
        seen = set()
        for _ in range(40):
            victim = plru.victim(allowed_ways=mask)
            seen.add(victim)
            plru.touch(victim)
        assert seen == set(mask)

    def test_non_power_of_two_ways(self):
        plru = PseudoLruTree(12)
        for _ in range(24):
            assert 0 <= plru.victim() < 12
            plru.touch(plru.victim())

    def test_touch_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            PseudoLruTree(8).touch(8)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError):
            PseudoLruTree(8).victim(allowed_ways=[])

    def test_touch_flips_bits_away(self):
        plru = PseudoLruTree(2)
        plru.touch(0)
        assert plru.victim() == 1
        plru.touch(1)
        assert plru.victim() == 0
