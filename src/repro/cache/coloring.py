"""Page-coloring (set) partitioning — the software alternative.

The paper's related work (Cho & Jin, Tam et al., Lin et al.) partitions
the LLC by *sets* through OS page placement: a page's color — the LLC
set-index bits inside its physical frame number — decides which sets its
lines can occupy. It needs no special hardware, but repartitioning means
*recoloring* pages (copying them to frames of another color), which is
expensive, and the number of partitions is fixed by the page size.

This module models that scheme over the same cache substrate so the
way-vs-set comparison the paper draws (Section 7: "our approach can
change LLC partitions much more quickly and with minimal overhead") can
be measured directly — see ``benchmarks/test_ablation_coloring.py``.
"""

from dataclasses import dataclass

from repro.cache.kernel import KernelCacheLevel
from repro.util.errors import ConfigurationError, ValidationError

PAGE_BYTES = 4096
PAGE_LINES = PAGE_BYTES // 64

# Cost of recoloring one page: copy 4 KB + update mappings + TLB work.
# Measured numbers on the era's hardware are ~3-5 microseconds/page.
RECOLOR_SECONDS_PER_PAGE = 4e-6


@dataclass(frozen=True)
class ColorAssignment:
    """A domain's set of page colors."""

    domain: int
    colors: frozenset


class ColoredLLC:
    """An LLC partitioned by page color instead of by way.

    The cache is modulo-indexed (page coloring is impossible under a
    hashed index — one of its practical limitations on later hardware).
    A domain's accesses are *remapped* into its colors, modelling the OS
    placing the domain's pages only in frames of those colors.
    """

    def __init__(
        self,
        capacity_bytes=6 * 1024 * 1024,
        num_ways=12,
        line_size=64,
        num_domains=4,
    ):
        self.storage = KernelCacheLevel(
            "LLC-colored",
            capacity_bytes,
            num_ways,
            line_size=line_size,
            replacement="plru",
            indexing="mod",
        )
        sets = self.storage.num_sets
        self.sets_per_color = PAGE_LINES
        if sets % self.sets_per_color:
            raise ConfigurationError("sets must divide evenly into page colors")
        self.num_colors = sets // self.sets_per_color
        self.num_domains = num_domains
        self._colors = {
            d: frozenset(range(self.num_colors)) for d in range(num_domains)
        }
        self.recolored_pages = 0
        self.recolor_cost_s = 0.0
        self._page_map = {}  # (domain, virtual page) -> colored frame page

    # -- partition control ---------------------------------------------------

    def colors_of(self, domain):
        return self._colors[domain]

    def capacity_fraction(self, domain):
        return len(self._colors[domain]) / self.num_colors

    def set_colors(self, domain, colors, resident_pages=0):
        """Reassign a domain's colors.

        Unlike way repartitioning, this has a *cost*: the domain's
        ``resident_pages`` whose current color fell out of the new set
        must be copied to differently-colored frames. The model counts
        that cost; callers charge it to the timeline.
        """
        colors = frozenset(colors)
        if not colors:
            raise ValidationError("a domain needs at least one color")
        if any(not 0 <= c < self.num_colors for c in colors):
            raise ValidationError("color out of range")
        old = self._colors[domain]
        removed = old - colors
        if removed and resident_pages:
            moved = int(resident_pages * len(removed) / max(len(old), 1))
            self.recolored_pages += moved
            self.recolor_cost_s += moved * RECOLOR_SECONDS_PER_PAGE
        self._colors[domain] = colors
        # Remappings change: drop stale translations for this domain.
        self._page_map = {
            key: frame for key, frame in self._page_map.items() if key[0] != domain
        }

    # -- accesses ------------------------------------------------------------------

    def _frame_page(self, domain, line_number):
        """Map a virtual page to a frame whose color the domain owns."""
        virtual_page = line_number // PAGE_LINES
        key = (domain, virtual_page)
        frame = self._page_map.get(key)
        if frame is None:
            colors = sorted(self._colors[domain])
            color = colors[virtual_page % len(colors)]
            # Keep distinct virtual pages of one color in distinct frames
            # by folding the page number into the frame's upper bits.
            frame = (virtual_page // len(colors)) * self.num_colors + color
            self._page_map[key] = frame
        return frame

    def access(self, line_number, is_write=False, domain=0):
        mapped = self._mapped_line(domain, line_number)
        hit = self.storage.access(mapped, is_write=is_write, domain=domain)
        if not hit:
            self.storage.fill(mapped, is_write=is_write, domain=domain)
        return hit

    def _mapped_line(self, domain, line_number):
        frame = self._frame_page(domain, line_number)
        return frame * PAGE_LINES + line_number % PAGE_LINES

    # -- introspection ---------------------------------------------------------------

    def occupancy(self):
        return self.storage.occupancy()

    def occupancy_by_color(self):
        counts = [0] * self.num_colors
        for set_idx, lookup in enumerate(self.storage._lookup):
            counts[set_idx // self.sets_per_color] += len(lookup)
        return counts

    def partitions_available(self):
        """Page coloring's granularity limit: one partition per color."""
        return self.num_colors
