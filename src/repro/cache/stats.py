"""Hit/miss/traffic counters for a cache level."""

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters accumulated by a cache level.

    All counts are since construction or the last :meth:`reset`; the perf
    subsystem (``repro.perf``) snapshots these to produce interval deltas.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    fills: int = 0
    back_invalidations: int = 0
    prefetch_fills: int = 0
    prefetch_useful: int = 0
    per_domain_misses: dict = field(default_factory=dict)
    per_domain_accesses: dict = field(default_factory=dict)

    @property
    def hit_ratio(self):
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self):
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def prefetch_accuracy(self):
        return (
            self.prefetch_useful / self.prefetch_fills if self.prefetch_fills else 0.0
        )

    def record_access(self, domain, hit):
        self.accesses += 1
        self.per_domain_accesses[domain] = self.per_domain_accesses.get(domain, 0) + 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.per_domain_misses[domain] = self.per_domain_misses.get(domain, 0) + 1

    def reset(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.fills = 0
        self.back_invalidations = 0
        self.prefetch_fills = 0
        self.prefetch_useful = 0
        self.per_domain_misses.clear()
        self.per_domain_accesses.clear()

    def snapshot(self):
        """A plain-dict copy suitable for delta computation."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "fills": self.fills,
            "back_invalidations": self.back_invalidations,
            "prefetch_fills": self.prefetch_fills,
            "prefetch_useful": self.prefetch_useful,
        }
