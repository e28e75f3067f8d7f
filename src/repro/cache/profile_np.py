"""Way profiling over compiled trace packs.

Given a :class:`~repro.workloads.tracepack.TracePack`, the set-sharded C
profiler (``repro_batch_profile`` in ``batchwalk.c``) replays each
domain's accesses with the pack's precomputed set column: sets are
independent under set-associative LRU, so shards of the set index space
run as separate work items while each set still sees its accesses in
program order. Without the native kernels the pack's lines go through
:meth:`~repro.cache.profile.WayProfiler.observe`, the one Python copy of
the UMON rule. Both produce *exactly* the sequential profiler's
histograms (asserted by the tests).
"""

import numpy as np

from repro.cache.profile import (
    LLC_NUM_SETS,
    LLC_NUM_WAYS,
    WayCurve,
    WayProfiler,
)
from repro.perf import engine_counters as ec
from repro.util.errors import ConfigurationError, ValidationError


def _domain_column(pack, num_domains):
    """Per-access domain ids, mirroring WaySweep's tid//2 pairing, or
    ``None`` for one domain; raises :class:`ValidationError` for an id
    outside ``[0, num_domains)``."""
    if num_domains <= 1:
        return None
    domains = np.asarray(pack.tid, dtype=np.int64) >> 1
    if len(domains) and not (
        0 <= domains.min() and domains.max() < num_domains
    ):
        raise ValidationError(
            f"pack tids map to profile domains outside [0, {num_domains})"
        )
    return domains


def _profile_pack_native(pack, sets, domains, num_sets, num_ways,
                         num_domains):
    """Histograms via the set-sharded C profiler, or ``None``.

    One ``repro_batch_profile`` call covers every domain: each
    (domain, set-shard) pair is an independent work item with its own
    histogram slot, and the per-domain histogram is the fixed-order
    integer sum over that domain's shard slots — exact, so the result
    is invariant to both the shard count and the thread schedule.
    """
    import ctypes

    from repro.cache import native

    fn = native.batch_profile_fn()
    if fn is None:
        return None
    i64 = np.int64
    lines = np.ascontiguousarray(np.asarray(pack.line, dtype=i64))
    sets = np.ascontiguousarray(sets)
    if domains is None:
        cell_lines = [lines]
        cell_sets = [sets]
    else:
        cell_lines = []
        cell_sets = []
        for d in range(num_domains):
            picked = np.flatnonzero(domains == d)
            cell_lines.append(np.ascontiguousarray(lines[picked]))
            cell_sets.append(np.ascontiguousarray(sets[picked]))
    cells = len(cell_lines)
    threads = native.resolve_native_threads(cells)
    shards = threads
    line_ptrs = np.array([c.ctypes.data for c in cell_lines], dtype=np.uintp)
    set_ptrs = np.array([c.ctypes.data for c in cell_sets], dtype=np.uintp)
    cell_n = np.array([len(c) for c in cell_lines], dtype=i64)
    stack_lines = np.zeros(cells * num_sets * num_ways, dtype=i64)
    stack_depth = np.zeros(cells * num_sets, dtype=i64)
    hist = np.zeros(cells * shards * (num_ways + 1), dtype=i64)
    pcfg = np.array([cells, threads, shards, num_sets, num_ways], dtype=i64)
    args = [
        ctypes.c_void_p(a.ctypes.data)
        for a in (pcfg, line_ptrs, set_ptrs, cell_n,
                  stack_lines, stack_depth, hist)
    ]
    fn(*args)
    per_cell = hist.reshape(cells, shards, num_ways + 1).sum(axis=1)
    return [[int(x) for x in per_cell[d]] for d in range(cells)]


def profile_pack(pack, num_sets=LLC_NUM_SETS, num_ways=LLC_NUM_WAYS,
                 indexing="hash", num_domains=1):
    """Profile one pack; returns ``{domain: WayCurve}``.

    Domains follow :class:`~repro.cache.profile.WaySweep`'s ``tid // 2``
    mapping; a tid whose domain falls outside ``[0, num_domains)``
    raises :class:`ValidationError`. The stack updates run in the
    batched C profiler when it is available, else in
    :meth:`WayProfiler.observe <repro.cache.profile.WayProfiler.observe>`
    over the pack's lines (``REPRO_NATIVE=0``); histograms are identical
    either way, the native pass is only faster.
    """
    if num_ways < 1:
        raise ConfigurationError("profiler needs at least one way")
    if num_domains < 1:
        raise ConfigurationError("profiler needs at least one domain")
    sets = np.asarray(pack.set_column(num_sets, indexing), dtype=np.int64)
    domains = _domain_column(pack, num_domains)
    native_hists = None
    if len(sets):
        native_hists = _profile_pack_native(
            pack, sets, domains, num_sets, num_ways, num_domains
        )
    ec.add(ec.PROFILER_PASSES)
    if native_hists is not None:
        # Every access lands in exactly one histogram bin.
        return {
            d: WayCurve(num_ways=num_ways, accesses=sum(native_hists[d]),
                        histogram=native_hists[d])
            for d in range(num_domains)
        }
    profiler = WayProfiler(num_sets, num_ways, indexing, num_domains)
    observe = profiler.observe
    if domains is None:
        for line in pack.lines_list():
            observe(line)
    else:
        for line, domain in zip(pack.lines_list(), domains.tolist()):
            observe(line, domain)
    return profiler.curves()
