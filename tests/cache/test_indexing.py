import pytest

from repro.cache.indexing import HashedIndex, ModuloIndex
from repro.util.errors import ConfigurationError


class TestModuloIndex:
    def test_wraps_modulo(self):
        idx = ModuloIndex(64)
        assert idx.index(0) == 0
        assert idx.index(64) == 0
        assert idx.index(65) == 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            ModuloIndex(48)

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            ModuloIndex(0)


class TestHashedIndex:
    def test_in_range(self):
        idx = HashedIndex(8192)
        for line in range(0, 100_000, 997):
            assert 0 <= idx.index(line) < 8192

    def test_deterministic(self):
        idx = HashedIndex(8192)
        assert idx.index(12345) == idx.index(12345)

    def test_spreads_power_of_two_strides(self):
        """A 4 KB-page stride must not map to a handful of sets.

        This is exactly the property the paper credits for removing
        working-set knees (Section 3.2).
        """
        idx = HashedIndex(8192)
        stride_lines = 64  # one 4 KB page, in line units
        sets = {idx.index(i * stride_lines) for i in range(4096)}
        assert len(sets) > 2048

    def test_differs_from_modulo(self):
        hashed = HashedIndex(64)
        modulo = ModuloIndex(64)
        differs = sum(
            1 for line in range(1000) if hashed.index(line) != modulo.index(line)
        )
        assert differs > 700

    def test_one_set_cache_indexes_set_zero(self):
        """A one-set cache has a 0-bit fold: every line maps to set 0, on
        the scalar and the vectorized path alike (the fold used to spin
        forever on any nonzero line)."""
        import numpy as np

        idx = HashedIndex(1)
        lines = [0, 1, 5, 2**40 + 3]
        assert [idx.index(line) for line in lines] == [0, 0, 0, 0]
        column = idx.index_array(np.array(lines, dtype=np.int64))
        assert column.dtype == np.int64
        assert column.tolist() == [0, 0, 0, 0]
