"""Set-index functions.

The paper attributes the absence of working-set knees partly to
"randomized LLC-indexing functions" (Section 3.2). ``HashedIndex``
XOR-folds upper address bits into the index the way Sandy Bridge's LLC
hash spreads accesses; ``ModuloIndex`` is the textbook power-of-two index
used by the inner caches.
"""

from repro.util.errors import ConfigurationError


class ModuloIndex:
    """index = line_number mod num_sets (num_sets must be a power of two)."""

    def __init__(self, num_sets):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ConfigurationError("num_sets must be a positive power of two")
        self.num_sets = num_sets
        self._mask = num_sets - 1

    def index(self, line_number):
        return line_number & self._mask

    def index_array(self, line_numbers):
        """Vectorized :meth:`index` over an int64 NumPy column."""
        import numpy as np

        lines = np.asarray(line_numbers, dtype=np.int64)
        return lines & np.int64(self._mask)


class HashedIndex:
    """XOR-folded index that mixes upper address bits into the set index."""

    def __init__(self, num_sets):
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ConfigurationError("num_sets must be a positive power of two")
        self.num_sets = num_sets
        self._mask = num_sets - 1
        self._bits = num_sets.bit_length() - 1

    def index(self, line_number):
        if not self._bits:
            return 0  # one set: the fold below would never shift
        folded = line_number
        acc = 0
        while folded:
            acc ^= folded & self._mask
            folded >>= self._bits
        # A final multiplicative mix decorrelates strided patterns.
        acc = (acc * 0x9E3779B1) & 0xFFFFFFFF
        return (acc >> 8) & self._mask if self.num_sets <= (1 << 24) else acc & self._mask

    def index_array(self, line_numbers):
        """Vectorized :meth:`index` over an int64 NumPy column.

        XOR-folding an element already at zero is a no-op, so running the
        fold until *every* element is exhausted gives each element exactly
        the same accumulator the scalar loop produces.
        """
        import numpy as np

        if not self._bits:
            return np.zeros(np.shape(line_numbers), dtype=np.int64)
        folded = np.asarray(line_numbers, dtype=np.int64).astype(np.uint64)
        acc = np.zeros(folded.shape, dtype=np.uint64)
        mask = np.uint64(self._mask)
        bits = np.uint64(self._bits)
        while folded.any():
            acc ^= folded & mask
            folded >>= bits
        # uint64 multiplication wraps modulo 2**64; the low 32 bits match
        # Python's arbitrary-precision product masked to 32 bits.
        with np.errstate(over="ignore"):
            acc = (acc * np.uint64(0x9E3779B1)) & np.uint64(0xFFFFFFFF)
        if self.num_sets <= (1 << 24):
            acc = (acc >> np.uint64(8)) & mask
        else:
            acc = acc & mask
        return acc.astype(np.int64)


# The ``indexing=`` names cache levels, packs and profilers accept.
_INDEXING = {"mod": ModuloIndex, "hash": HashedIndex}
