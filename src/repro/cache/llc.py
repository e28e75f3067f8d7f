"""The way-partitioned, inclusive last-level cache.

Implements the mechanism of paper Section 2.1:

- Each domain (core) is assigned a subset of the 12 ways.
- Assignments may be private, fully shared, or overlapping.
- Any domain can *hit* on data in any way; a domain can only *replace*
  data in its assigned ways.
- Changing an assignment never flushes data — stale lines simply become
  irreplaceable by their old owner and persist until another domain
  evicts them.
"""

from repro.cache.kernel import KernelCacheLevel
from repro.util.errors import ConfigurationError, ValidationError


class WayMask:
    """An immutable set of LLC way indices with bitmask conveniences."""

    def __init__(self, ways, num_ways=12):
        ways = frozenset(int(w) for w in ways)
        if not ways:
            raise ValidationError("a way mask cannot be empty")
        for w in ways:
            if not 0 <= w < num_ways:
                raise ValidationError(f"way {w} outside 0..{num_ways - 1}")
        self.ways = ways
        self.num_ways = num_ways
        # Immutable, so the resctrl-style bitmask is built once.
        self.bits = sum(1 << w for w in ways)

    @classmethod
    def contiguous(cls, count, offset=0, num_ways=12):
        """``count`` ways starting at ``offset`` (the usual CAT shape)."""
        if count < 1 or offset < 0 or offset + count > num_ways:
            raise ValidationError(
                f"cannot place {count} ways at offset {offset} in {num_ways}"
            )
        return cls(range(offset, offset + count), num_ways)

    @classmethod
    def full(cls, num_ways=12):
        return cls(range(num_ways), num_ways)

    @classmethod
    def from_bits(cls, bits, num_ways=12):
        """Parse a resctrl-style hex bitmask (e.g. 0xFF0)."""
        if bits <= 0:
            raise ValidationError("bitmask must have at least one way set")
        return cls((w for w in range(num_ways) if bits >> w & 1), num_ways)

    @property
    def count(self):
        return len(self.ways)

    def capacity_bytes(self, llc_capacity_bytes):
        return llc_capacity_bytes * self.count // self.num_ways

    def overlaps(self, other):
        return bool(self.ways & other.ways)

    def __iter__(self):
        return iter(sorted(self.ways))

    def __eq__(self, other):
        return isinstance(other, WayMask) and self.ways == other.ways

    def __hash__(self):
        return hash(self.ways)

    def __repr__(self):
        return f"WayMask({sorted(self.ways)})"


class PartitionedLLC:
    """A shared LLC whose replacement is constrained by per-domain masks."""

    def __init__(
        self,
        capacity_bytes=6 * 1024 * 1024,
        num_ways=12,
        line_size=64,
        num_domains=4,
        replacement="plru",
        indexing="hash",
    ):
        if num_domains < 1:
            raise ConfigurationError("need at least one domain")
        self.storage = KernelCacheLevel(
            "LLC",
            capacity_bytes,
            num_ways,
            line_size=line_size,
            replacement=replacement,
            indexing=indexing,
        )
        self.num_ways = num_ways
        self.num_domains = num_domains
        self._masks = {d: WayMask.full(num_ways) for d in range(num_domains)}
        # Sorted way lists / bitmasks are hoisted out of the fill hot path.
        self._mask_ways = {d: list(m) for d, m in self._masks.items()}
        self._mask_bits = {d: m.bits for d, m in self._masks.items()}

    # -- partition control -------------------------------------------------

    def check_mask(self, domain, mask):
        """Raise unless ``mask`` may be assigned to ``domain``: a known
        domain and a mask sized for this LLC."""
        if domain not in self._masks:
            raise ValidationError(f"unknown domain {domain}")
        if mask.num_ways != self.num_ways:
            raise ValidationError("mask sized for a different LLC")

    def set_mask(self, domain, mask):
        """Assign ``mask`` to ``domain``. Data is *not* flushed."""
        self.check_mask(domain, mask)
        self._masks[domain] = mask
        self._mask_ways[domain] = list(mask)
        self._mask_bits[domain] = mask.bits

    def mask_of(self, domain):
        return self._masks[domain]

    def masks(self):
        return dict(self._masks)

    # -- the access protocol ------------------------------------------------

    def access(self, line_number, is_write=False, domain=0):
        """Probe the LLC. Hits are permitted in *any* way."""
        return self.storage.access(line_number, is_write=is_write, domain=domain)

    def fill(self, line_number, is_write=False, domain=0, prefetch=False, sharer=None):
        """Fill a line; the victim must come from the domain's mask."""
        return self.storage.fill(
            line_number,
            is_write=is_write,
            domain=domain,
            allowed_ways=self._mask_ways[domain],
            prefetch=prefetch,
            sharer=sharer,
        )

    # -- passthroughs ---------------------------------------------------------

    @property
    def stats(self):
        return self.storage.stats

    def contains(self, line_number):
        return self.storage.contains(line_number)

    def add_sharer(self, line_number, core):
        self.storage.add_sharer(line_number, core)

    def invalidate(self, line_number):
        return self.storage.invalidate(line_number)

    def occupancy(self):
        return self.storage.occupancy()

    def occupancy_by_way(self):
        return self.storage.occupancy_by_way()
