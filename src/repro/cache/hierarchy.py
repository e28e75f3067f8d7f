"""The full three-level cache hierarchy with an inclusive, partitioned LLC.

Geometry mirrors the paper's platform (Section 2.1): per-core 32 KB L1D and
256 KB non-inclusive L2, and a shared 6 MB 12-way inclusive LLC. Inclusion
is enforced by back-invalidating inner copies whenever the LLC evicts a
line. Hyperthreads map pairwise onto cores (tids 0,1 -> core 0, ...).
"""

from repro.cache.block import AccessResult, MemoryAccess
from repro.cache.kernel import KernelCacheLevel
from repro.cache.llc import PartitionedLLC
from repro.cache.prefetch import PrefetcherBank
from repro.perf import engine_counters as ec
from repro.util.errors import ValidationError
from repro.util.units import KB, MB

L1_LATENCY = 4
L2_LATENCY = 12
LLC_LATENCY = 30
MEM_LATENCY = 200


class CacheHierarchy:
    """Private L1/L2 per core plus the shared partitioned LLC."""

    def __init__(
        self,
        num_cores=4,
        l1_bytes=32 * KB,
        l1_ways=8,
        l2_bytes=256 * KB,
        l2_ways=8,
        llc_bytes=6 * MB,
        llc_ways=12,
        line_size=64,
        llc_indexing="hash",
    ):
        self.num_cores = num_cores
        self.line_size = line_size
        self.l1 = [
            KernelCacheLevel(
                f"L1-{c}", l1_bytes, l1_ways, line_size, replacement="lru"
            )
            for c in range(num_cores)
        ]
        self.l2 = [
            KernelCacheLevel(
                f"L2-{c}", l2_bytes, l2_ways, line_size, replacement="plru"
            )
            for c in range(num_cores)
        ]
        self.llc = PartitionedLLC(
            capacity_bytes=llc_bytes,
            num_ways=llc_ways,
            line_size=line_size,
            num_domains=num_cores,
            indexing=llc_indexing,
        )
        self.prefetchers = [PrefetcherBank() for _ in range(num_cores)]
        # Optional way-profiler observing every LLC probe (line, domain).
        self.llc_profiler = None
        self._scratch = AccessResult()  # reused by the fast access path

    # -- topology -----------------------------------------------------------

    def core_of_tid(self, tid):
        """Hyperthreads are assigned pairwise: tids 2c and 2c+1 -> core c."""
        core = tid // 2
        if not 0 <= core < self.num_cores:
            raise ValidationError(f"tid {tid} maps outside {self.num_cores} cores")
        return core

    # -- partitioning control -------------------------------------------------

    def set_way_mask(self, core, mask):
        self.llc.set_mask(core, mask)

    def set_prefetchers(self, core=None, enabled=True):
        banks = self.prefetchers if core is None else [self.prefetchers[core]]
        for bank in banks:
            bank.set_all(enabled)

    def prefetchers_enabled(self):
        """True if any prefetcher on any core is enabled."""
        return any(pf.enabled for bank in self.prefetchers for pf in bank.all())

    # -- the access protocol ---------------------------------------------------

    def access(self, access_or_address, is_write=False, tid=0, pc=0):
        """Walk one access through the hierarchy; returns an AccessResult."""
        if isinstance(access_or_address, MemoryAccess):
            acc = access_or_address
        else:
            acc = MemoryAccess(
                address=access_or_address, is_write=is_write, pc=pc, tid=tid
            )
        core = self.core_of_tid(acc.tid)
        line = acc.line_address
        result = AccessResult()
        bank = self.prefetchers[core]

        l1_hit = self.l1[core].access(line, acc.is_write, domain=core)
        prefetch_targets = bank.observe_l1(acc, l1_hit)
        if l1_hit:
            result.hit_level, result.latency = "L1", L1_LATENCY
        else:
            l2_hit = self.l2[core].access(line, acc.is_write, domain=core)
            prefetch_targets += bank.observe_l2(acc, l2_hit)
            if l2_hit:
                result.hit_level, result.latency = "L2", L2_LATENCY
                self._fill_l1(core, line, acc.is_write, result)
            else:
                if self.llc_profiler is not None:
                    self.llc_profiler.observe(line, core)
                llc_hit = self.llc.access(line, acc.is_write, domain=core)
                if llc_hit:
                    result.hit_level, result.latency = "LLC", LLC_LATENCY
                    self.llc.add_sharer(line, core)
                else:
                    result.hit_level, result.latency = "MEM", MEM_LATENCY
                    self._fill_llc(core, line, acc.is_write, result)
                self._fill_l2(core, line, result)
                self._fill_l1(core, line, acc.is_write, result)

        for pf_line, target in prefetch_targets:
            if pf_line < 0:
                continue
            self._prefetch(core, pf_line, target, result)
        result.prefetches_issued = len(prefetch_targets)
        return result

    def access_fast(self, line, is_write, core):
        """One access with every prefetcher disabled: the same walk as
        :meth:`access` minus prefetcher observation, with no per-access
        ``MemoryAccess``/``AccessResult`` allocation.

        State and stats updates are identical to :meth:`access` (the
        observe calls it skips are no-ops when prefetchers are off).
        Returns ``(hit_level, latency)``. :meth:`TraceEngine.run
        <repro.sim.trace_engine.TraceEngine.run>` and the pure-Python
        epoch driver take this walk, and ``access_one`` in
        ``multiwalk.c`` ports it over the kernel levels.
        """
        if self.l1[core].access(line, is_write, domain=core):
            return "L1", L1_LATENCY
        scratch = self._scratch
        if self.l2[core].access(line, is_write, domain=core):
            self._fill_l1(core, line, is_write, scratch)
            return "L2", L2_LATENCY
        if self.llc_profiler is not None:
            self.llc_profiler.observe(line, core)
        if self.llc.access(line, is_write, domain=core):
            self.llc.add_sharer(line, core)
            level, latency = "LLC", LLC_LATENCY
        else:
            self._fill_llc(core, line, is_write, scratch)
            level, latency = "MEM", MEM_LATENCY
        self._fill_l2(core, line, scratch)
        self._fill_l1(core, line, is_write, scratch)
        return level, latency

    def run_trace(self, accesses):
        """Walk a full trace; returns aggregate totals as a dict.

        When every prefetcher is disabled the walk dispatches through the
        allocation-free batched path (:meth:`access_fast`); the totals are
        identical either way.
        """
        totals = {
            "accesses": 0,
            "l1_hits": 0,
            "l2_hits": 0,
            "llc_hits": 0,
            "llc_misses": 0,
            "latency": 0,
        }
        if not self.prefetchers_enabled():
            return self._run_trace_batched(accesses, totals)
        for acc in accesses:
            result = self.access(acc)
            totals["accesses"] += 1
            totals["latency"] += result.latency
            if result.hit_level == "L1":
                totals["l1_hits"] += 1
            elif result.hit_level == "L2":
                totals["l2_hits"] += 1
            elif result.hit_level == "LLC":
                totals["llc_hits"] += 1
            else:
                totals["llc_misses"] += 1
        return totals

    _LEVEL_KEY = {"L1": "l1_hits", "L2": "l2_hits", "LLC": "llc_hits", "MEM": "llc_misses"}

    def _run_trace_batched(self, accesses, totals):
        access_fast = self.access_fast
        core_of = self.core_of_tid
        level_key = self._LEVEL_KEY
        count = latency_total = 0
        for acc in accesses:
            level, latency = access_fast(acc.line_address, acc.is_write, core_of(acc.tid))
            count += 1
            latency_total += latency
            totals[level_key[level]] += 1
        totals["accesses"] = count
        totals["latency"] = latency_total
        ec.add(ec.KERNEL_BATCHES)
        ec.add(ec.KERNEL_BATCHED_ACCESSES, count)
        return totals

    # -- internals ---------------------------------------------------------------

    def _fill_l1(self, core, line, is_write, result):
        evicted = self.l1[core].fill(line, is_write=is_write, domain=core)
        if evicted is not None and evicted.dirty:
            # Non-inclusive L2: a dirty L1 victim lands in (or updates) L2.
            if not self.l2[core].mark_dirty(evicted.tag):
                self._fill_l2(core, evicted.tag, result, dirty=True)
            result.writebacks += 1

    def _fill_l2(self, core, line, result, dirty=False):
        evicted = self.l2[core].fill(line, is_write=dirty, domain=core)
        if evicted is not None and evicted.dirty:
            # Inclusive LLC normally still holds the line; update it there.
            if not self.llc.storage.mark_dirty(evicted.tag):
                result.writebacks += 1  # fell through to memory

    def _fill_llc(self, core, line, is_write, result, prefetch=False):
        evicted = self.llc.fill(
            line, is_write=is_write, domain=core, prefetch=prefetch, sharer=core
        )
        if evicted is not None:
            result.llc_victim_line = evicted.tag
            self._back_invalidate(evicted, result)

    def _back_invalidate(self, evicted, result):
        """Enforce inclusion: evicted LLC lines leave all inner caches."""
        for core in range(self.num_cores):
            if evicted.sharers and not (evicted.sharers >> core) & 1:
                continue
            if self.l1[core].invalidate(evicted.tag):
                result.writebacks += 1
            if self.l2[core].invalidate(evicted.tag):
                result.writebacks += 1
            result.back_invalidations += 1

    def _prefetch(self, core, line, target, result):
        """Fill a prefetched line at ``target``, keeping the LLC inclusive."""
        if not self.llc.contains(line):
            self._fill_llc(core, line, False, result, prefetch=True)
        self.llc.add_sharer(line, core)
        if target == "L2":
            if not self.l2[core].contains(line):
                self._fill_l2(core, line, result)
        else:  # L1
            if not self.l1[core].contains(line):
                self._fill_l1(core, line, False, result)
