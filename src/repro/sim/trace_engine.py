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
from repro.cache.kernel import _HIT_LEVELS
from repro.perf import engine_counters as ec
from repro.util.errors import ValidationError


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

    def pack(self):
        """The trace's :class:`~repro.workloads.tracepack.TracePack`
        (:func:`~repro.workloads.tracepack.get_pack`, one object per
        pack per process), or ``None`` for a trace that is not
        pack-compilable."""
        from repro.workloads.trace import _TraceBase
        from repro.workloads.tracepack import get_pack

        trace = self.trace_factory()
        return get_pack(trace) if isinstance(trace, _TraceBase) else None


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

    With all prefetchers off, :meth:`run` walks each access through
    :meth:`~repro.cache.hierarchy.CacheHierarchy.access_fast`, the
    hierarchy's allocation-free walk. :meth:`run_packed` and
    :meth:`run_dynamic` replay compiled trace packs through the
    pure-Python epoch driver (:func:`_epoch_replay`), which takes the
    same walk, and :meth:`run` stays the bit-identity reference for
    both. All three are pure Python: the native kernels
    are reached only through the rosters (:func:`run_packed_roster`,
    :func:`run_dynamic_roster`), which these methods are the references
    for.
    """

    def __init__(self, hierarchy=None, prefetchers_on=True):
        self.hierarchy = hierarchy or CacheHierarchy()
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
        # holds workload i's iterator, stats, think time, and core.
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
        access_fast = hierarchy.access_fast
        cores = [core_of(w.tid) for w in workloads]
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
                hit_level, latency = access_fast(
                    access.address >> LINE_SHIFT, access.is_write,
                    cores[slot],
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

    def run_packed(self, workloads, total_accesses=100_000):
        """Co-run over compiled trace packs; bit-identical to :meth:`run`.

        Each workload's trace is compiled (or loaded from the pack cache)
        into columnar arrays once, and the whole co-run replays as one
        epoch of :class:`~repro.cache.kernel.PythonEpochReplay`, which
        also takes an attached LLC profiler; every stat and state change
        lands in this engine's hierarchy. Falls back to
        :meth:`run` whenever the epoch driver does not apply: prefetchers
        on, a non-compilable trace factory, a pack that carries writes,
        two workloads on one core, or hierarchy state outside the native
        kernels' precondition (dirty or prefetched lines, inner levels
        that are not 8-way).
        """
        if not workloads:
            raise ValidationError("need at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")

        hierarchy = self.hierarchy
        if hierarchy.prefetchers_enabled():
            return self.run(workloads, total_accesses)
        packs = [w.pack() for w in workloads]
        if None in packs:
            return self.run(workloads, total_accesses)

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
                    total_accesses=100_000):
        """Trace-driven dynamic partitioning: epoch replay + controller.

        Replays the co-run in epochs of ``epoch_accesses`` combined
        accesses; after each epoch the per-domain LLC miss/access deltas
        become an MPKI window fed to ``controller.on_tick`` (one epoch =
        one control period), and any masks the controller returns are
        applied to the hierarchy *without flushing anything* — every
        resident line and the full recency state carry straight across
        the reallocation, which is the Section 2.1 mechanism semantics
        the analytical ``repro dynamic`` can only model. The epoch driver
        is :meth:`run_packed`'s pure-Python one, whose every LLC fill
        reads the domain's current mask; this is the reference
        :func:`run_dynamic_roster` equals bit for bit, stats and
        reallocation timeline alike.
        Returns a :class:`DynamicTraceResult`.
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
        packs = [w.pack() for w in workloads]
        if None in packs:
            raise ValidationError("every workload must be pack-compilable")

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
                "run_dynamic needs an epoch replay driver (read-only "
                "traces and state, 8-way inner levels)"
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
                    timeline.append(
                        _timeline_entry(epoch, controller, new_masks)
                    )
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
            native=False,
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
            for level, count in zip(_HIT_LEVELS, (g0, g1, g2, g3)):
                if count:
                    hbl[level] = count
            s.llc_misses = g3
            stats_list.append(s)
        ec.add(ec.TRACE_ACCESSES, issued)
        ec.add(ec.PACK_REPLAYS, len(packs))
        return {w.name: stats_list[i] for i, w in enumerate(workloads)}


def _timeline_entry(epoch, controller, new_masks):
    """The timeline record of one applied reallocation: the epoch, the
    controller's last action, and the full name -> way-bitmask map."""
    act = controller.actions[-1]
    return {
        "epoch": epoch,
        "time_s": act.time_s,
        "fg_ways": act.fg_ways,
        "reason": act.reason,
        "mpki": act.mpki,
        "masks": {n: m.bits for n, m in sorted(new_masks.items())},
    }


def _epoch_replay(hierarchy, cores, workloads, packs):
    """The pure-Python epoch driver for one packed co-run, or ``None``.

    A :class:`~repro.cache.kernel.PythonEpochReplay` over the
    hierarchy's :meth:`~repro.cache.hierarchy.CacheHierarchy.access_fast`
    walk, bit-identical to :meth:`TraceEngine.run`.
    ``None`` when it cannot take the co-run: a pack that carries
    writes, two workloads on one core, or a hierarchy that fails the
    drivers' shared gate
    (:func:`~repro.cache.kernel._epoch_replay_supported`).
    """
    from repro.cache.kernel import build_python_epoch_replay

    if any(p.writes_list() is not None for p in packs):
        return None
    return build_python_epoch_replay(
        hierarchy, cores,
        [w.think_cycles for w in workloads],
        [p.lines_list() for p in packs],
        [len(p.line) for p in packs],
        [w.repeat for w in workloads],
    )


def measure_isolation(fg_workload, bg_workload, fg_mask=None, bg_mask=None,
                      total_accesses=120_000):
    """Foreground latency/miss-ratio alone, shared, and partitioned.

    The address-level version of the paper's core experiment, with
    prefetchers off: a prefetch-accelerated stream
    monopolizes the access budget and the measurement becomes a warm-up
    study rather than a partitioning one. Each scenario is a warm-up
    pass, then a measured pass over the same caches. With the native
    kernels the three scenarios are three cells of one epoch batch over
    the cold template (:func:`_isolation_batch`). Where that batch
    declines, each scenario is two :meth:`TraceEngine.run_packed` calls
    on one fresh engine, which fall back to :meth:`TraceEngine.run` by
    themselves. The numbers are the same on every path.
    """
    from repro.cache.llc import WayMask

    fg_core = fg_workload.tid // 2
    bg_core = bg_workload.tid // 2
    if fg_core == bg_core:
        raise ValidationError("workloads must run on different cores")
    pair = [fg_workload, bg_workload]
    masks = {
        fg_core: fg_mask or WayMask.contiguous(9, 0),
        bg_core: bg_mask or WayMask.contiguous(3, 9),
    }
    scenarios = {
        "alone": RosterCell([fg_workload], None, total_accesses),
        "shared": RosterCell(pair, None, total_accesses),
        "partitioned": RosterCell(pair, masks, total_accesses),
    }

    def warm_then_measure(cell):
        engine = TraceEngine(prefetchers_on=False)
        for core, mask in (cell.masks or {}).items():
            engine.hierarchy.set_way_mask(core, mask)
        engine.run_packed(cell.workloads, total_accesses)  # warm-up pass
        return engine.run_packed(cell.workloads, total_accesses)

    outcomes = _isolation_batch(list(scenarios.values()))
    if outcomes is None:
        outcomes = [warm_then_measure(cell) for cell in scenarios.values()]

    def summarize(stats):
        s = stats[fg_workload.name]
        return {
            "avg_latency": s.avg_latency,
            "miss_ratio": s.llc_misses / s.accesses if s.accesses else 0.0,
        }

    return {
        name: summarize(stats) for name, stats in zip(scenarios, outcomes)
    }


def _isolation_batch(cells):
    """Warm-then-measure :class:`RosterCell` co-runs as the cells of one
    epoch batch over the cold template, or ``None`` where
    :func:`_roster_batch` declines.

    One call runs every cell's warm-up pass;
    :meth:`~repro.cache.kernel.NativeEpochBatchReplay.restart` rewinds
    each cell's traces over its warm bank, and one more call runs the
    measured pass. Returns ``{name: TraceStats}`` per cell from the
    measured pass, equal to two :meth:`TraceEngine.run_packed` calls on
    one fresh engine per cell.
    """
    from repro.cache.kernel import build_native_epoch_batch_replay

    roster = Roster.of(cells)
    batch = _roster_batch(roster, build_native_epoch_batch_replay)
    if batch is None:
        return None
    rows = list(range(len(cells)))
    for _ in range(2):  # the warm-up pass, then the measured pass
        for r in rows:
            batch.restart(r)
        batch.run_active(rows)
        ec.add(ec.DYNBATCH_CALLS)
        ec.add(ec.DYNBATCH_CELLS, len(rows))
        outcomes = _roster_stats(roster, *batch.results())
    return outcomes


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
        engine = TraceEngine(prefetchers_on=False)
        if cell.masks:
            for core, mask in cell.masks.items():
                engine.hierarchy.set_way_mask(core, mask)
        results.append(engine.run_packed(
            cell.workloads, total_accesses=cell.total_accesses
        ))
    return results


# The cold, prefetchers-off hierarchy every roster cell starts
# from, with its bank snapshot: built once per process. Batch cells never
# write back into it, so it stays cold.
_COLD_TEMPLATE = None


def _cold_template():
    """The process-wide :class:`~repro.cache.kernel.TemplateBank` of a
    fresh ``TraceEngine(prefetchers_on=False)``."""
    global _COLD_TEMPLATE
    if _COLD_TEMPLATE is None:
        from repro.cache.kernel import TemplateBank

        engine = TraceEngine(prefetchers_on=False)
        _COLD_TEMPLATE = TemplateBank(engine.hierarchy)
    return _COLD_TEMPLATE


@dataclass
class Roster:
    """A roster of co-runs as index arrays over shared workloads and
    way masks.

    Cell ``r`` co-runs ``workloads[members[r, s]]`` in its slots ``s``,
    with ``-1`` past its last domain. Slot ``(r, s)`` fills the LLC under
    ``masks[mask_of[r, s]]``, or at ``-1`` under its core's full default
    mask, and the cell issues ``stops[r]`` accesses. ``packs`` holds
    each workload's :meth:`TraceWorkload.pack` (aligned with
    ``workloads``, ``None`` for a trace that is not pack-compilable).
    Workloads, packs and masks are resolved and validated once each,
    however many cells name them.
    """

    workloads: list
    masks: list
    members: object
    mask_of: object
    stops: object
    packs: list

    def __len__(self):
        return len(self.stops)

    @classmethod
    def of(cls, cells):
        """The :class:`RosterCell` list ``cells`` as one roster, each
        distinct workload and mask object listed once. A cell with no
        workloads, or a mask ``set_way_mask`` would refuse on a fresh
        hierarchy, raises :class:`ValidationError`; masks for cores the
        cell does not run on are checked and then play no part."""
        import numpy as np

        h = _cold_template().hierarchy
        n_max = max((len(cell.workloads) for cell in cells), default=0)
        members = np.full((len(cells), n_max), -1, dtype=np.int64)
        mask_of = np.full((len(cells), n_max), -1, dtype=np.int64)
        workloads, masks = {}, {}
        checked = set()
        for r, cell in enumerate(cells):
            if not cell.workloads:
                raise ValidationError("every roster cell needs workloads")
            cell_masks = cell.masks or {}
            for core, mask in cell_masks.items():
                if (core, id(mask)) not in checked:
                    h.llc.check_mask(core, mask)
                    checked.add((core, id(mask)))
            for s, w in enumerate(cell.workloads):
                members[r, s] = workloads.setdefault(
                    id(w), (len(workloads), w)
                )[0]
                mask = cell_masks.get(h.core_of_tid(w.tid))
                if mask is not None:
                    mask_of[r, s] = masks.setdefault(
                        id(mask), (len(masks), mask)
                    )[0]
        workloads = [w for _, w in workloads.values()]
        return cls(
            workloads=workloads,
            masks=[m for _, m in masks.values()],
            members=members,
            mask_of=mask_of,
            stops=np.array(
                [cell.total_accesses for cell in cells], dtype=np.int64
            ),
            packs=[w.pack() for w in workloads],
        )

    def cells(self):
        """The roster as one :class:`RosterCell` per row."""
        out = []
        for row, kinds, stop in zip(
            self.members.tolist(), self.mask_of.tolist(), self.stops.tolist()
        ):
            workloads = [self.workloads[i] for i in row if i >= 0]
            masks = {
                w.tid // 2: self.masks[k]
                for w, k in zip(workloads, kinds) if k >= 0
            }
            out.append(RosterCell(workloads, masks or None, stop))
        return out


def _roster_batch(roster, build, threads=None, profile=False):
    """The :class:`Roster` as one native batch from the cold template,
    built by ``build`` (:func:`~repro.cache.kernel.build_native_batch_replay`
    or its epoch sibling); a true ``profile`` gives every cell its own
    UMON.

    The :class:`~repro.cache.kernel.BatchCells` table is gathered from
    per-workload and per-mask arrays in whole-array operations: cores,
    names, masks and packs are checked once per distinct workload, row
    and ``(core, mask)`` pair. ``None`` when a used trace is not
    pack-compilable or writes, a cell puts two workloads on one core, or
    the builder declines. A cell with no or duplicate workload names, or
    a mask ``set_way_mask`` would refuse on a fresh hierarchy, raises
    :class:`ValidationError` first.
    """
    import numpy as np

    from repro.cache.kernel import BatchCells

    template = _cold_template()
    h = template.hierarchy
    members = np.asarray(roster.members, dtype=np.int64)
    mask_of = np.asarray(roster.mask_of, dtype=np.int64)
    valid = members >= 0
    if not valid[:, 0].all():
        raise ValidationError("every roster cell needs workloads")
    for row in set(map(tuple, members.tolist())):
        names = [roster.workloads[i].name for i in row if i >= 0]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique per cell")

    used = sorted(set(members[valid].tolist()))
    n = len(roster.workloads)
    core_of = np.full(n + 1, -1, dtype=np.int64)  # [-1] pads empty slots
    think_of = np.zeros(n + 1, dtype=np.int64)
    repeat_of = np.zeros(n + 1, dtype=bool)
    for i in used:
        w = roster.workloads[i]
        core_of[i] = h.core_of_tid(w.tid)
        think_of[i] = w.think_cycles
        repeat_of[i] = w.repeat
    cores = core_of[members]
    masked = valid & (mask_of >= 0)
    for core, k in set(zip(cores[masked].tolist(), mask_of[masked].tolist())):
        h.llc.check_mask(core, roster.masks[k])

    packs = roster.packs
    if any(packs[i] is None for i in used):
        return None
    column_of = np.full(n + 1, -1, dtype=np.int64)
    columns = {}
    for i in used:
        pack = packs[i]
        if id(pack) not in columns:
            if pack.writes_list() is not None:
                return None
            columns[id(pack)] = (len(columns), pack)
        column_of[i] = columns[id(pack)][0]
    llc = h.llc.storage
    column_packs = [pack for _, pack in columns.values()]
    words = np.array(
        [mask.bits for mask in roster.masks] + [0], dtype=np.int64
    )
    defaults = np.array(
        [h.llc._mask_bits[c] for c in range(h.num_cores)] + [0],
        dtype=np.int64,
    )
    R = len(members)
    cells = BatchCells(
        lines=[p.line for p in column_packs],
        sets=[p.set_column(llc.num_sets, llc.indexing) for p in column_packs],
        lengths=[len(p.line) for p in column_packs],
        column=column_of[members],
        cores=cores,
        thinks=think_of[members],
        repeats=repeat_of[members],
        masks=np.where(mask_of >= 0, words[mask_of], defaults[cores]),
        stops=np.asarray(roster.stops, dtype=np.int64),
        profile=np.ones(R, dtype=bool) if profile else None,
    )
    return build(template, cells, threads=threads)


def _roster_stats(roster, counts, vtimes):
    """``{name: TraceStats}`` per cell from a batch's result arrays,
    equal to :meth:`TraceEngine._packed_stats` of each cell; counts the
    replay's ``trace_accesses`` and ``pack_replays`` once for all."""
    import numpy as np

    members = np.asarray(roster.members)
    valid = members >= 0
    accesses = counts.sum(axis=2)
    # Exact integer sums, then floats, as _packed_stats computes them.
    latency = counts @ np.array([4, 12, 30, 200], dtype=np.int64)
    ec.add(ec.TRACE_ACCESSES, int(accesses[valid].sum()))
    ec.add(ec.PACK_REPLAYS, int(valid.sum()))
    names = [w.name for w in roster.workloads]
    out = []
    for row, hits, acc, lat, cycles in zip(
        members.tolist(), counts.tolist(), accesses.tolist(),
        latency.astype(float).tolist(), vtimes.astype(float).tolist(),
    ):
        stats = {}
        for s, i in enumerate(row):
            if i < 0:
                break
            h = hits[s]
            stats[names[i]] = TraceStats(
                acc[s], cycles[s], lat[s], h[3],
                {level: n for level, n in zip(_HIT_LEVELS, h) if n},
            )
        out.append(stats)
    return out


def run_packed_roster(cells, threads=None):
    """Replay a roster of independent co-runs in ONE native call.

    ``cells`` is a :class:`Roster`, or a list of :class:`RosterCell`
    taken as :meth:`Roster.of` does. Each cell gets its own fresh
    prefetchers-off hierarchy state (the process-wide
    cold template's one bank snapshot, restored per cell inside the
    kernel; see :func:`~repro.cache.kernel.build_native_batch_replay`),
    its own way masks, and its own issue budget; the compiled batch
    kernel replays every cell in a single ctypes call, threading over
    cells per ``threads`` / ``REPRO_NATIVE_THREADS``. Returns a list of
    ``{name: TraceStats}`` aligned with the cells, bit-identical — for
    any thread count, and with ``REPRO_NATIVE=0`` — to running each
    cell on a fresh :class:`TraceEngine` via :meth:`TraceEngine.run_packed`.
    That reference, :func:`_run_roster_sequential`, is also the fallback
    whenever a cell is not batchable: non-compilable traces, writing
    traces, shared cores, or no native kernel.

    Each distinct trace resolves to one pack, so R allocations of a way
    sweep replay one memmapped TracePack, not R copies.

    A mask naming an unknown core or sized for another LLC raises the
    :class:`ValidationError` ``set_way_mask`` raises, on every path.
    """
    from repro.cache.kernel import build_native_batch_replay

    if not len(cells):
        return []
    roster = cells if isinstance(cells, Roster) else Roster.of(cells)

    batch = _roster_batch(roster, build_native_batch_replay, threads)
    if batch is None:
        return _run_roster_sequential(roster.cells())

    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        counts, vtimes = batch.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    ec.add(ec.BATCH_CALLS)
    ec.add(ec.BATCH_CELLS, len(counts))
    return _roster_stats(roster, counts, vtimes)


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
        engine = TraceEngine(prefetchers_on=False)
        results.append(engine.run_dynamic(
            cell.workloads,
            cell.controller,
            epoch_accesses=cell.epoch_accesses,
            total_accesses=cell.total_accesses,
        ))
    return results


def run_dynamic_roster(cells, threads=None):
    """Run a roster of dynamic-partitioning co-runs, batched.

    Every :class:`DynamicRosterCell` gets its own fresh
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
    is unavailable. A controller mask, initial or returned by
    ``on_tick``, sized for another LLC raises the
    :class:`ValidationError` ``set_way_mask`` raises, on every path.
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

    from repro.cache.kernel import build_native_epoch_batch_replay
    from repro.core.dynamic import mpki_windows

    h = _cold_template().hierarchy
    core_of = h.core_of_tid
    roster = []
    for cell in cells:
        names = [w.name for w in cell.workloads]
        initial = cell.controller.masks()
        if (
            len(cell.workloads) < 2
            or len(set(names)) != len(names)
            or cell.epoch_accesses < 1
            or set(initial) != set(names)
        ):
            return _run_dynamic_roster_sequential(cells)
        roster.append(RosterCell(
            cell.workloads,
            {core_of(w.tid): initial[w.name] for w in cell.workloads},
            0,  # nothing runs until the host loop sets targets
        ))
    roster = Roster.of(roster)
    batch = _roster_batch(roster, build_native_epoch_batch_replay, threads)
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
                        slot = slot_of[name]
                        h.llc.check_mask(
                            core_of(cell.workloads[slot].tid), mask
                        )
                        batch.set_mask_bits(r, slot, mask.bits)
                    timelines[r].append(
                        _timeline_entry(epochs[r], controller, new_masks)
                    )
                if issued[r] < totals[r]:
                    still.append(r)
            active = still
    finally:
        if gc_was_enabled:
            gc.enable()

    return [
        DynamicTraceResult(
            stats=stats,
            timeline=timelines[r],
            actions=list(cell.controller.actions),
            epochs=epochs[r],
            native=True,
        )
        for r, (cell, stats) in enumerate(
            zip(cells, _roster_stats(roster, *batch.results()))
        )
    ]


def way_allocation_sweep(workloads, total_accesses=100_000):
    """Per-domain ``hits(ways)`` utility curves from ONE co-run.

    Co-runs the workloads once on a fresh prefetchers-off
    hierarchy with a per-domain UMON on its LLC probe stream: the
    returned curves answer "how many LLC hits would domain d see with w
    ways to itself" for every w in 1..12 — the input the paper's
    allocation policies (and UCP) need, without re-simulating per mask.
    Returns ``(stats, {domain: WayCurve})`` with a curve for every core
    (all-zero for idle ones).

    With the native kernels the pass is one ``profile`` cell of
    :func:`~repro.cache.kernel.build_native_batch_replay` over the
    process-wide cold template, which keeps the UMON stacks and
    histograms in C. Otherwise — ``REPRO_NATIVE=0``, a cell the batch
    builder refuses (two workloads on one core, a writing trace), or a
    non-compilable trace — a :class:`~repro.cache.profile.WayProfiler`
    attached to a fresh :class:`TraceEngine` observes
    :meth:`TraceEngine.run_packed`. Both equal a profiler on
    :meth:`TraceEngine.run`, the reference, and count one profiler pass
    plus the replay's ``trace_accesses`` and ``pack_replays``.
    """
    if not workloads:
        raise ValidationError("need at least one workload")
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        raise ValidationError("workload names must be unique")
    result = _native_way_sweep(workloads, total_accesses)
    if result is None:
        result = _profiled_run_packed(workloads, total_accesses)
    ec.add(ec.PROFILER_PASSES)
    return result


def _native_way_sweep(workloads, total_accesses):
    """The profiled co-run as one native batch cell, or ``None``."""
    from repro.cache.kernel import build_native_batch_replay
    from repro.cache.profile import WayCurve

    roster = Roster.of([RosterCell(workloads, None, total_accesses)])
    batch = _roster_batch(
        roster, build_native_batch_replay, threads=1, profile=True
    )
    if batch is None:
        return None
    (stats,) = _roster_stats(roster, *batch.run())
    h = _cold_template().hierarchy
    W = h.llc.storage.num_ways
    cores = [h.core_of_tid(w.tid) for w in workloads]
    hists = dict(zip(cores, batch.cell_profile(0)))
    curves = {}
    for core in range(h.num_cores):
        hist = hists.get(core, [0] * (W + 1))
        curves[core] = WayCurve(
            num_ways=W, accesses=sum(hist), histogram=hist
        )
    return stats, curves


def _profiled_run_packed(workloads, total_accesses):
    """The reference profiled co-run: a :class:`WayProfiler` attached to
    a fresh engine's hierarchy, observing :meth:`TraceEngine.run_packed`
    (the pure-Python epoch driver, or :meth:`TraceEngine.run`)."""
    from repro.cache.profile import WayProfiler

    engine = TraceEngine(prefetchers_on=False)
    llc = engine.hierarchy.llc.storage
    profiler = WayProfiler(
        num_sets=llc.num_sets,
        num_ways=llc.num_ways,
        indexing=llc.indexing,
        num_domains=engine.hierarchy.num_cores,
    )
    engine.hierarchy.llc_profiler = profiler
    stats = engine.run_packed(workloads, total_accesses=total_accesses)
    engine.hierarchy.llc_profiler = None
    return stats, profiler.curves()
