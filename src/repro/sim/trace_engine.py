"""Trace-driven multi-core co-execution at address level.

The statistical interval engine answers the paper's full-size questions;
this engine answers the mechanism-level ones: it interleaves several
address traces through the real cache hierarchy by virtual time (each
domain advances by its access latency plus its compute "think time"), so
partitioning effects on *actual line replacement* can be measured — the
ground truth the occupancy model approximates.
"""

import gc
import heapq
from dataclasses import dataclass, field

from repro.cache.block import LINE_SHIFT
from repro.cache.hierarchy import CacheHierarchy
from repro.perf import engine_counters as ec
from repro.util.errors import ValidationError

# The epoch drivers count hits per level index; these are the level
# names the generic walk reports.
_LEVEL_NAMES = ("L1", "L2", "LLC", "MEM")


@dataclass
class TraceWorkload:
    """One domain's access stream plus its compute intensity."""

    name: str
    trace_factory: object  # () -> iterable of MemoryAccess
    tid: int = 0
    think_cycles: int = 10  # compute cycles between memory accesses
    repeat: bool = True  # loop the trace until the run ends

    def __post_init__(self):
        if self.think_cycles < 0:
            raise ValidationError("think time cannot be negative")


@dataclass
class TraceStats:
    """Per-domain outcome of a trace-driven co-run."""

    accesses: int = 0
    cycles: float = 0.0
    total_latency: float = 0.0
    llc_misses: int = 0
    hits_by_level: dict = field(default_factory=dict)

    @property
    def avg_latency(self):
        return self.total_latency / self.accesses if self.accesses else 0.0

    @property
    def access_rate_per_kilocycle(self):
        return 1000.0 * self.accesses / self.cycles if self.cycles else 0.0


@dataclass
class DynamicTraceResult:
    """Outcome of a trace-driven dynamic-partitioning co-run.

    ``timeline`` holds one entry per applied reallocation (epoch index,
    controller time, foreground ways, reason, MPKI sample, and the full
    name -> way-bitmask map) — the trace-level analogue of the action
    trail `repro dynamic` prints for the analytical engine. It is
    byte-equal between the native and pure-Python epoch drivers.
    """

    stats: dict
    timeline: list
    actions: list
    epochs: int
    native: bool


class TraceEngine:
    """Virtual-time interleaving of traces over one cache hierarchy.

    ``backend`` picks the cache implementation when no hierarchy is
    supplied: ``"object"`` (reference model) or ``"kernel"`` (flat-array
    kernel, bit-identical and much faster). With all prefetchers off,
    :meth:`run` dispatches through the hierarchy's allocation-free fused
    walk. :meth:`run_packed` and :meth:`run_dynamic` replay compiled
    trace packs through one epoch driver (:func:`_epoch_replay`), and
    :meth:`run` stays the bit-identity reference for both.
    """

    def __init__(self, hierarchy=None, prefetchers_on=True, backend="object"):
        self.hierarchy = hierarchy or CacheHierarchy(backend=backend)
        self.hierarchy.set_prefetchers(enabled=prefetchers_on)

    def run(self, workloads, total_accesses=100_000):
        """Co-run the workloads; returns {name: TraceStats}.

        The run ends after ``total_accesses`` combined accesses, or when
        every non-repeating trace is exhausted.
        """
        if not workloads:
            raise ValidationError("need at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")

        # Index-based state (no per-access string-keyed lookups): slot i
        # holds workload i's iterator, stats, think time, and walker.
        iterators = [iter(w.trace_factory()) for w in workloads]
        stats_list = [TraceStats() for _ in workloads]
        thinks = [w.think_cycles for w in workloads]
        # (virtual_time, slot) min-heap: the least-advanced domain issues
        # next, modelling concurrent progress. The slot is a unique
        # tiebreak, so pop order matches the original (vtime, i, name)
        # entries exactly.
        heap = [(0.0, i) for i in range(len(workloads))]
        heapq.heapify(heap)
        issued = 0

        hierarchy = self.hierarchy
        use_fast = not hierarchy.prefetchers_enabled()
        core_of = hierarchy.core_of_tid
        walkers = (
            [hierarchy.fast_walker(core_of(w.tid)) for w in workloads]
            if use_fast
            else None
        )
        heappop, heappush = heapq.heappop, heapq.heappush

        while heap and issued < total_accesses:
            vtime, slot = heappop(heap)
            try:
                access = next(iterators[slot])
            except StopIteration:
                workload = workloads[slot]
                if not workload.repeat:
                    continue  # exhausted, non-repeating: domain retires
                iterators[slot] = iter(workload.trace_factory())
                try:
                    access = next(iterators[slot])
                except StopIteration:
                    continue
            if use_fast:
                hit_level, latency = walkers[slot](
                    access.address >> LINE_SHIFT, access.is_write
                )
            else:
                result = hierarchy.access(access)
                hit_level, latency = result.hit_level, result.latency
            s = stats_list[slot]
            s.accesses += 1
            s.total_latency += latency
            s.cycles = vtime + latency + thinks[slot]
            hbl = s.hits_by_level
            hbl[hit_level] = hbl.get(hit_level, 0) + 1
            if hit_level == "MEM":
                s.llc_misses += 1
            issued += 1
            heappush(heap, (s.cycles, slot))
        ec.add(ec.TRACE_ACCESSES, issued)
        return {w.name: stats_list[i] for i, w in enumerate(workloads)}

    def run_packed(self, workloads, total_accesses=100_000, packs=None):
        """Co-run over compiled trace packs; bit-identical to :meth:`run`.

        Each workload's trace is compiled (or loaded from the pack cache)
        into columnar arrays once, and the whole co-run replays as one
        epoch of the driver :func:`_epoch_replay` picks: a one-cell
        ``epochbatch`` call when the native kernel is available, else
        :class:`~repro.cache.kernel.PythonEpochReplay`, which also takes
        an attached LLC profiler. ``packs`` optionally supplies
        pre-compiled packs aligned with ``workloads``. Falls back to
        :meth:`run` whenever the lean epoch replay does not apply:
        prefetchers on, a non-compilable trace factory, a pack that
        carries writes, two workloads on one core, or hierarchy state
        the lean walk cannot take (non-kernel backend, dirty or
        prefetched lines, inner levels that are not 8-way).
        """
        if not workloads:
            raise ValidationError("need at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")

        hierarchy = self.hierarchy
        if hierarchy.prefetchers_enabled():
            return self.run(workloads, total_accesses)
        if packs is None:
            packs = _compile_packs(workloads)
            if packs is None:
                return self.run(workloads, total_accesses)
        elif len(packs) != len(workloads):
            raise ValidationError("need one pack per workload")

        cores = [hierarchy.core_of_tid(w.tid) for w in workloads]
        replay = _epoch_replay(hierarchy, cores, workloads, packs)
        if replay is None:
            return self.run(workloads, total_accesses)
        # The replay allocates only transient ints; cyclic GC passes are
        # pure overhead here, so pause collection for the duration.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            replay.run_epoch(total_accesses)
        finally:
            if gc_was_enabled:
                gc.enable()
        grabbed, vtimes = replay.finish()
        return self._packed_stats(workloads, list(grabbed), list(vtimes), packs)

    def run_dynamic(self, workloads, controller, epoch_accesses=5_000,
                    total_accesses=100_000, packs=None):
        """Trace-driven dynamic partitioning: epoch replay + controller.

        Replays the co-run in epochs of ``epoch_accesses`` combined
        accesses; after each epoch the per-domain LLC miss/access deltas
        become an MPKI window fed to ``controller.on_tick`` (one epoch =
        one control period), and any masks the controller returns are
        applied to the hierarchy *without flushing anything* — every
        resident line and the full recency state carry straight across
        the reallocation, which is the Section 2.1 mechanism semantics
        the analytical ``repro dynamic`` can only model. The epoch driver
        comes from :func:`_epoch_replay`, like :meth:`run_packed`'s:
        native when available, else the bit-identical pure-Python
        driver; stats and the reallocation timeline are byte-equal either
        way. Returns a :class:`DynamicTraceResult`.
        """
        if len(workloads) < 2:
            raise ValidationError("dynamic partitioning needs >= 2 workloads")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")
        if epoch_accesses < 1:
            raise ValidationError("epoch_accesses must be positive")
        hierarchy = self.hierarchy
        if hierarchy.prefetchers_enabled():
            raise ValidationError("run_dynamic needs prefetchers off")
        if packs is None:
            packs = _compile_packs(workloads)
            if packs is None:
                raise ValidationError("every workload must be pack-compilable")
        elif len(packs) != len(workloads):
            raise ValidationError("need one pack per workload")

        core_of = hierarchy.core_of_tid
        cores = [core_of(w.tid) for w in workloads]
        if len(set(cores)) != len(cores):
            raise ValidationError("workloads must run on distinct cores")
        core_by_name = dict(zip(names, cores))
        initial = controller.masks()
        if set(initial) != set(names):
            raise ValidationError(
                "controller domain names must match the workload names"
            )
        # Masks first, then the replay builders capture them.
        for name, mask in initial.items():
            hierarchy.set_way_mask(core_by_name[name], mask)

        from repro.core.dynamic import mpki_window

        replay = _epoch_replay(hierarchy, cores, workloads, packs)
        if replay is None:
            raise ValidationError(
                "run_dynamic needs the lean epoch replay (kernel backend, "
                "read-only traces)"
            )

        period_s = controller.period_s
        prev = [(0, 0, 0, 0)] * len(workloads)
        timeline = []
        epoch = 0
        issued = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while issued < total_accesses:
                target = issued + epoch_accesses
                if target > total_accesses:
                    target = total_accesses
                progressed = replay.run_epoch(target)
                if progressed == issued:
                    break  # every domain retired
                issued = progressed
                epoch += 1
                metrics = {}
                for i, name in enumerate(names):
                    cur = replay.counters(i)
                    delta_acc = sum(cur) - sum(prev[i])
                    delta_miss = cur[3] - prev[i][3]
                    prev[i] = cur
                    metrics[name] = {"mpki": mpki_window(delta_miss,
                                                         delta_acc),
                                     "accesses": delta_acc,
                                     "misses": delta_miss}
                now_s = epoch * period_s
                new_masks = controller.on_tick(now_s, period_s, metrics)
                if new_masks:
                    for name, mask in new_masks.items():
                        hierarchy.set_way_mask(core_by_name[name], mask)
                    replay.refresh_masks()
                    act = controller.actions[-1]
                    timeline.append({
                        "epoch": epoch,
                        "time_s": act.time_s,
                        "fg_ways": act.fg_ways,
                        "reason": act.reason,
                        "mpki": act.mpki,
                        "masks": {
                            n: m.bits
                            for n, m in sorted(new_masks.items())
                        },
                    })
        finally:
            if gc_was_enabled:
                gc.enable()
        grabbed, vtimes = replay.finish()
        stats = self._packed_stats(
            workloads, list(grabbed), list(vtimes), packs
        )
        return DynamicTraceResult(
            stats=stats,
            timeline=timeline,
            actions=list(controller.actions),
            epochs=epoch,
            native=replay.native,
        )

    @staticmethod
    def _packed_stats(workloads, grabbed, vtimes, packs):
        """Materialize per-workload TraceStats from raw level counts."""
        stats_list = []
        issued = 0
        for i, w in enumerate(workloads):
            g0, g1, g2, g3 = grabbed[i]
            acc = g0 + g1 + g2 + g3
            issued += acc
            s = TraceStats()
            s.accesses = acc
            s.total_latency = float(g0 * 4 + g1 * 12 + g2 * 30 + g3 * 200)
            s.cycles = float(vtimes[i])
            hbl = s.hits_by_level
            for level, count in zip(_LEVEL_NAMES, (g0, g1, g2, g3)):
                if count:
                    hbl[level] = count
            s.llc_misses = g3
            stats_list.append(s)
        ec.add(ec.TRACE_ACCESSES, issued)
        ec.add(ec.PACK_REPLAYS, len(packs))
        return {w.name: stats_list[i] for i, w in enumerate(workloads)}


def _compile_packs(workloads):
    """Each workload's trace pack, or ``None`` when a trace factory does
    not produce a pack-compilable trace."""
    from repro.workloads.trace import _TraceBase
    from repro.workloads.tracepack import get_pack

    packs = []
    for w in workloads:
        source = w.trace_factory()
        if not isinstance(source, _TraceBase):
            return None
        packs.append(get_pack(source))
    return packs


def _epoch_replay(hierarchy, cores, workloads, packs):
    """The epoch driver for one packed co-run, or ``None``.

    The native driver (a one-cell ``epochbatch`` roster, see
    :func:`~repro.cache.kernel.build_native_epoch_replay`) when the
    kernel is available and the layout allows it, else the pure-Python
    :class:`~repro.cache.kernel.PythonEpochReplay`. ``None`` when the
    lean epoch replay cannot take the co-run at all: a pack carries
    writes, two workloads share a core, or the hierarchy is not a lean
    kernel hierarchy. Both drivers are bit-identical to
    :meth:`TraceEngine.run`.
    """
    from repro.cache.kernel import (
        KernelCacheLevel,
        build_native_epoch_replay,
        build_python_epoch_replay,
    )

    llc = hierarchy.llc.storage
    if not isinstance(llc, KernelCacheLevel):
        return None
    if any(p.writes_list() is not None for p in packs):
        return None
    indexing = "mod" if llc._mod_mask >= 0 else "hash"
    thinks = [w.think_cycles for w in workloads]
    lengths = [len(p.line) for p in packs]
    repeats = [w.repeat for w in workloads]
    replay = build_native_epoch_replay(
        hierarchy, cores, thinks,
        [p.line for p in packs],
        [p.set_column(llc.num_sets, indexing) for p in packs],
        lengths, repeats,
    )
    if replay is None:
        replay = build_python_epoch_replay(
            hierarchy, cores, thinks,
            [p.lines_list() for p in packs],
            [p.sets_list(llc.num_sets, indexing) for p in packs],
            lengths, repeats,
        )
    return replay


def measure_isolation(fg_workload, bg_workload, fg_mask=None, bg_mask=None,
                      total_accesses=120_000, prefetchers_on=False,
                      backend="kernel"):
    """Foreground latency/miss-ratio alone, shared, and partitioned.

    The address-level version of the paper's core experiment. Prefetchers
    default off: a prefetch-accelerated stream monopolizes the access
    budget and the measurement becomes a warm-up study rather than a
    partitioning one. Every pass goes through
    :meth:`TraceEngine.run_packed`, which falls back to
    :meth:`TraceEngine.run` by itself; the kernel backend equals the
    object model, so the numbers are the same on either.
    """
    from repro.cache.llc import WayMask

    def fresh_engine(masks=None):
        engine = TraceEngine(prefetchers_on=prefetchers_on, backend=backend)
        if masks:
            for core, mask in masks.items():
                engine.hierarchy.set_way_mask(core, mask)
        return engine

    fg_core = fg_workload.tid // 2
    bg_core = bg_workload.tid // 2
    if fg_core == bg_core:
        raise ValidationError("workloads must run on different cores")

    def warm_then_measure(masks, workloads):
        engine = fresh_engine(masks)
        engine.run_packed(workloads, total_accesses)  # warm-up pass
        return engine.run_packed(workloads, total_accesses)  # measured pass

    alone = warm_then_measure(None, [fg_workload])
    shared = warm_then_measure(None, [fg_workload, bg_workload])
    masks = {
        fg_core: fg_mask or WayMask.contiguous(9, 0),
        bg_core: bg_mask or WayMask.contiguous(3, 9),
    }
    partitioned = warm_then_measure(masks, [fg_workload, bg_workload])

    def summarize(stats):
        s = stats[fg_workload.name]
        return {
            "avg_latency": s.avg_latency,
            "miss_ratio": s.llc_misses / s.accesses if s.accesses else 0.0,
        }

    return {
        "alone": summarize(alone),
        "shared": summarize(shared),
        "partitioned": summarize(partitioned),
    }


@dataclass
class RosterCell:
    """One independent co-run in a batched roster.

    ``masks`` optionally maps core -> :class:`~repro.cache.llc.WayMask`
    applied for this cell only (the batched equivalent of
    ``set_way_mask`` on a fresh engine); unnamed cores keep the
    hierarchy's default full mask.
    """

    workloads: list
    masks: dict = None
    total_accesses: int = 100_000


def _run_roster_sequential(cells):
    """The reference path: one fresh engine + ``run_packed`` per cell."""
    results = []
    for cell in cells:
        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        if cell.masks:
            for core, mask in cell.masks.items():
                engine.hierarchy.set_way_mask(core, mask)
        results.append(engine.run_packed(
            cell.workloads, total_accesses=cell.total_accesses
        ))
    return results


# The cold, prefetchers-off kernel hierarchy every roster cell starts
# from, with its bank snapshot: built once per process. Batch cells never
# write back into it, so it stays cold.
_COLD_TEMPLATE = None


def _cold_template():
    """The process-wide :class:`~repro.cache.kernel.TemplateBank` of a
    fresh ``TraceEngine(prefetchers_on=False, backend="kernel")``."""
    global _COLD_TEMPLATE
    if _COLD_TEMPLATE is None:
        from repro.cache.kernel import TemplateBank

        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        _COLD_TEMPLATE = TemplateBank(engine.hierarchy)
    return _COLD_TEMPLATE


def run_packed_roster(cells, threads=None):
    """Replay a roster of independent co-runs in ONE native call.

    Each :class:`RosterCell` gets its own fresh kernel-backed,
    prefetchers-off hierarchy state (a copy of the process-wide cold
    template's one bank snapshot, made per cell inside the kernel; see
    :func:`~repro.cache.kernel.build_native_batch_replay`), its own way
    masks, and its own issue budget; the compiled batch kernel replays
    every cell in a single ctypes call, threading over cells per
    ``threads`` / ``REPRO_NATIVE_THREADS``. Returns a list of
    ``{name: TraceStats}`` aligned with ``cells``, bit-identical — for
    any thread count, and with ``REPRO_NATIVE=0`` — to running each
    cell on a fresh :class:`TraceEngine` via :meth:`TraceEngine.run_packed`.
    That reference, :func:`_run_roster_sequential`, is also the fallback
    whenever a cell is not batchable: non-compilable traces, writing
    traces, shared cores, or no native kernel.

    Shared traces dedupe through the pack cache, so R allocations of a
    way sweep replay one memmapped TracePack, not R copies.
    """
    if not cells:
        return []
    for cell in cells:
        if not cell.workloads:
            raise ValidationError("every roster cell needs workloads")
        names = [w.name for w in cell.workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique per cell")

    cell_packs = []
    for cell in cells:
        packs = _compile_packs(cell.workloads)
        if packs is None:
            return _run_roster_sequential(cells)
        cell_packs.append(packs)

    from repro.cache.kernel import build_native_batch_replay

    template = _cold_template()
    h = template.hierarchy
    llc = h.llc.storage
    llc_indexing = "mod" if llc._mod_mask >= 0 else "hash"
    core_of = h.core_of_tid
    default_bits = h.llc._mask_bits

    cell_dicts = []
    for cell, packs in zip(cells, cell_packs):
        cores = [core_of(w.tid) for w in cell.workloads]
        if len(set(cores)) != len(cores) or any(
            p.writes_list() is not None for p in packs
        ):
            return _run_roster_sequential(cells)
        mask_bits = None
        if cell.masks:
            mask_bits = [
                cell.masks[c].bits if c in cell.masks else default_bits[c]
                for c in cores
            ]
        cell_dicts.append({
            "cores": cores,
            "thinks": [w.think_cycles for w in cell.workloads],
            "mask_bits": mask_bits,
            "lines": [p.line for p in packs],
            "sets": [
                p.set_column(llc.num_sets, llc_indexing) for p in packs
            ],
            "lengths": [len(p.line) for p in packs],
            "repeats": [w.repeat for w in cell.workloads],
            "stop": cell.total_accesses,
        })

    batch = build_native_batch_replay(template, cell_dicts, threads=threads)
    if batch is None:
        return _run_roster_sequential(cells)

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        outcomes = batch.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    ec.add(ec.BATCH_CALLS)
    ec.add(ec.BATCH_CELLS, len(cells))
    return [
        TraceEngine._packed_stats(
            cell.workloads, list(counts), list(vtimes), packs
        )
        for cell, packs, (counts, vtimes)
        in zip(cells, cell_packs, outcomes)
    ]


@dataclass
class DynamicRosterCell:
    """One controller-driven co-run in a batched dynamic roster.

    ``controller`` must be a fresh controller instance per cell
    (:class:`~repro.core.dynamic.DynamicPartitionController` or
    compatible) — controllers are stateful, and each cell's exact
    decision timeline is preserved.
    """

    workloads: list
    controller: object
    epoch_accesses: int = 5_000
    total_accesses: int = 100_000


def _run_dynamic_roster_sequential(cells):
    """The reference path: one fresh engine + ``run_dynamic`` per cell."""
    results = []
    for cell in cells:
        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        results.append(engine.run_dynamic(
            cell.workloads,
            cell.controller,
            epoch_accesses=cell.epoch_accesses,
            total_accesses=cell.total_accesses,
        ))
    return results


def run_dynamic_roster(cells, threads=None):
    """Run a roster of dynamic-partitioning co-runs, batched.

    Every :class:`DynamicRosterCell` gets its own fresh kernel-backed,
    prefetchers-off hierarchy state (its own bank, which the kernel fills
    from the process-wide cold template's one snapshot; see
    :func:`~repro.cache.kernel.build_native_epoch_batch_replay`), its
    own initial controller masks, and its own epoch/total budgets.
    Each round of the host loop advances every still-active cell by one
    epoch in ONE threaded ctypes call, then steps *all* cells'
    controllers in one pass — per-epoch MPKI windows computed vectorized
    over the banked counters (:func:`repro.core.dynamic.mpki_windows`)
    — and writes any returned way masks straight back into the dom
    banks, flush-free. Cells whose domains retire early simply drop out
    of the active set; the rest keep their exact epoch cadence.

    Returns a list of :class:`DynamicTraceResult` aligned with
    ``cells``, with stats bit-identical and per-cell reallocation
    timelines byte-equal — for any thread count, and with
    ``REPRO_NATIVE=0`` — to running each cell on a fresh
    :class:`TraceEngine` via :meth:`TraceEngine.run_dynamic`. That
    reference, :func:`_run_dynamic_roster_sequential`, is also the
    fallback whenever a cell is not batchable or the epoch-batch kernel
    is unavailable.
    """
    if not cells:
        return []
    seen_controllers = set()
    for cell in cells:
        if not cell.workloads:
            raise ValidationError("every roster cell needs workloads")
        if id(cell.controller) in seen_controllers:
            raise ValidationError(
                "each dynamic roster cell needs its own controller "
                "instance (controllers are stateful)"
            )
        seen_controllers.add(id(cell.controller))

    cell_packs = []
    for cell in cells:
        names = [w.name for w in cell.workloads]
        if (
            len(cell.workloads) < 2
            or len(set(names)) != len(names)
            or cell.epoch_accesses < 1
        ):
            return _run_dynamic_roster_sequential(cells)
        packs = _compile_packs(cell.workloads)
        if packs is None or any(p.writes_list() is not None for p in packs):
            return _run_dynamic_roster_sequential(cells)
        cell_packs.append(packs)

    from repro.cache.kernel import build_native_epoch_batch_replay
    from repro.core.dynamic import mpki_windows

    template = _cold_template()
    h = template.hierarchy
    llc = h.llc.storage
    llc_indexing = "mod" if llc._mod_mask >= 0 else "hash"
    core_of = h.core_of_tid

    cell_dicts = []
    for cell, packs in zip(cells, cell_packs):
        names = [w.name for w in cell.workloads]
        cores = [core_of(w.tid) for w in cell.workloads]
        if len(set(cores)) != len(cores):
            return _run_dynamic_roster_sequential(cells)
        initial = cell.controller.masks()
        if set(initial) != set(names):
            return _run_dynamic_roster_sequential(cells)
        cell_dicts.append({
            "cores": cores,
            "thinks": [w.think_cycles for w in cell.workloads],
            "mask_bits": [initial[name].bits for name in names],
            "lines": [p.line for p in packs],
            "sets": [
                p.set_column(llc.num_sets, llc_indexing) for p in packs
            ],
            "lengths": [len(p.line) for p in packs],
            "repeats": [w.repeat for w in cell.workloads],
            "stop": 0,  # nothing runs until the host loop sets targets
        })

    batch = build_native_epoch_batch_replay(
        template, cell_dicts, threads=threads
    )
    if batch is None:
        return _run_dynamic_roster_sequential(cells)

    import numpy as np

    R = len(cells)
    issued = [0] * R
    epochs = [0] * R
    timelines = [[] for _ in range(R)]
    totals = [cell.total_accesses for cell in cells]
    bank = batch.counter_bank()
    prev = np.zeros_like(bank)
    active = [r for r in range(R) if issued[r] < totals[r]]

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while active:
            for r in active:
                target = issued[r] + cells[r].epoch_accesses
                if target > totals[r]:
                    target = totals[r]
                batch.set_stop(r, target)
            batch.run_active(active)
            ec.add(ec.DYNBATCH_CALLS)
            ec.add(ec.DYNBATCH_CELLS, len(active))
            cur = bank.copy()
            delta = cur - prev
            prev = cur
            # Vectorized controller inputs for every cell at once; each
            # element is bit-identical to the scalar mpki_window the
            # sequential driver computes.
            accesses = delta.sum(axis=2)
            mpki = mpki_windows(delta[:, :, 3], accesses)
            still = []
            for r in active:
                progressed = batch.issued_of(r)
                if progressed == issued[r]:
                    continue  # every domain retired
                issued[r] = progressed
                epochs[r] += 1
                cell = cells[r]
                controller = cell.controller
                names = [w.name for w in cell.workloads]
                metrics = {
                    name: {"mpki": float(mpki[r, i]),
                           "accesses": int(accesses[r, i]),
                           "misses": int(delta[r, i, 3])}
                    for i, name in enumerate(names)
                }
                period_s = controller.period_s
                now_s = epochs[r] * period_s
                new_masks = controller.on_tick(now_s, period_s, metrics)
                if new_masks:
                    slot_of = {name: i for i, name in enumerate(names)}
                    for name, mask in new_masks.items():
                        batch.set_mask_bits(r, slot_of[name], mask.bits)
                    act = controller.actions[-1]
                    timelines[r].append({
                        "epoch": epochs[r],
                        "time_s": act.time_s,
                        "fg_ways": act.fg_ways,
                        "reason": act.reason,
                        "mpki": act.mpki,
                        "masks": {
                            n: m.bits
                            for n, m in sorted(new_masks.items())
                        },
                    })
                if issued[r] < totals[r]:
                    still.append(r)
            active = still
    finally:
        if gc_was_enabled:
            gc.enable()

    results = []
    for r, (cell, packs) in enumerate(zip(cells, cell_packs)):
        counts, vtimes = batch.cell_result(r)
        stats = TraceEngine._packed_stats(
            cell.workloads, list(counts), list(vtimes), packs
        )
        results.append(DynamicTraceResult(
            stats=stats,
            timeline=timelines[r],
            actions=list(cell.controller.actions),
            epochs=epochs[r],
            native=True,
        ))
    return results


def way_allocation_sweep(workloads, total_accesses=100_000):
    """Per-domain ``hits(ways)`` utility curves from ONE co-run.

    Attaches a :class:`~repro.cache.profile.WayProfiler` (a per-domain
    UMON) to a fresh kernel-backed, prefetchers-off hierarchy's LLC
    probe stream and co-runs the workloads once through
    :meth:`TraceEngine.run_packed`: the returned curves answer "how many
    LLC hits would domain d see with w ways to itself" for every w in
    1..12 — the input the paper's allocation policies (and UCP) need,
    without re-simulating per mask. The profiler observes the same LLC
    probe stream as under :meth:`TraceEngine.run`, the reference.
    Returns ``(stats, {domain: WayCurve})``.
    """
    from repro.cache.indexing import HashedIndex
    from repro.cache.profile import WayProfiler

    engine = TraceEngine(prefetchers_on=False, backend="kernel")
    llc = engine.hierarchy.llc.storage
    profiler = WayProfiler(
        num_sets=llc.num_sets,
        num_ways=llc.num_ways,
        indexing="hash" if isinstance(llc._indexer, HashedIndex) else "mod",
        num_domains=engine.hierarchy.num_cores,
    )
    engine.hierarchy.llc_profiler = profiler
    stats = engine.run_packed(workloads, total_accesses=total_accesses)
    engine.hierarchy.llc_profiler = None
    ec.add(ec.PROFILER_PASSES)
    return stats, profiler.curves()
