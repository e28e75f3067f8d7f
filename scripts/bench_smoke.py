#!/usr/bin/env python
"""Smoke benchmark of the execution/caching layer.

Times the Fig. 8 pairwise sweep on an 8-app subset under four arms:

- ``seed``          — the pre-optimization engine (``occupancy_tol=0``
                      replays the fixed 40-iteration solver schedule bit
                      for bit), serial, memo off;
- ``fast``          — solver fast paths on, serial, memo off;
- ``memo``          — fast paths + interval memo, serial;
- ``parallel_memo`` — fast paths + memo on ``--workers`` processes.

Each arm runs ``--repeats`` times on a fresh Machine and keeps the best
wall time. Before reporting, the script verifies the optimization
contract: memo-on results equal memo-off results exactly, and the fast
arms agree with the seed arm to ~1e-9 relative. The summary lands in
``BENCH_engine.json`` (tier-2 checked by benchmarks/test_bench_smoke.py).

It then benchmarks the compiled trace packs into ``BENCH_tracepack.json``:
the same co-run on the PR 2 kernel fast loop vs ``run_packed`` over warm
packs, the 12-allocation way sweep by per-mask re-simulation vs one
vectorized pack profile, and a cold-compile-then-disk-hit check of the
on-disk pack cache — all bit-identity / counter verified.

Finally it benchmarks the N-domain epoch replay into ``BENCH_dynamic.json``:

- ``static_4dom``   — a 4-domain partitioned co-run, native epoch kernel
                      vs the pure-Python epoch driver over the same
                      packs, full-signature bit-identity enforced;
- ``dynamic_2dom``  — a trace-driven dynamically partitioned run (the
                      controller reallocates ways between epochs without
                      flushing), native epoch kernel vs the pure-Python
                      epoch driver, stats *and* reallocation timeline
                      byte-equal.

Then it benchmarks the policy layer into ``BENCH_policy.json``: the
biased-split search through :class:`TraceBackend` (profile-scored sweep
plus one re-measured co-run) vs the pre-backend direct sweep — the two
arms must choose the identical split.

And it benchmarks the batched native replay into ``BENCH_batch.json``:
a 12-cell measured way-sweep roster (the shared baseline plus all 11
disjoint splits of a zipf+stream pair), replayed per cell on a fresh
engine through the per-call native path (the sequential reference) vs
ONE ``repro_batch_walk`` call over contiguous per-cell state banks —
per-cell stats bit-identical, and additionally invariant across
``REPRO_NATIVE_THREADS=1`` / ``=4`` / ``REPRO_NATIVE=0``.

And it benchmarks the epoch-batched dynamic rosters into
``BENCH_dynbatch.json``: a 16-cell roster of independent dynamically
partitioned co-runs, each cell replayed alone through ``run_dynamic``
(the sequential reference) vs the whole roster advanced one epoch per
``repro_epoch_batch`` call with every controller stepped host-side
between calls — per-cell stats bit-identical, reallocation timelines
byte-equal, and invariant across ``REPRO_NATIVE_THREADS=1`` / ``=4`` /
``REPRO_NATIVE=0``.

And it benchmarks the fleet-scale campaign engine into
``BENCH_campaign.json``: a 200-cell batchable grid (5 fixed-mask
policies x 4 trace pairs x 10 geometries) executed by the sequential
per-cell loop vs ``run_campaign``'s roster shards (one batched native
call per shard, checkpointed to a multi-shard store) — every record
metric-identical to its per-cell reference by content address, and a
resume over the completed store counter-verified to replay zero cells.

And it benchmarks the vectorized analytical grid solver into
``BENCH_gridsolve.json``: every disjoint split of six multi-phase pairs
across a six-point frequency ladder (396 cells) at ``occupancy_tol=0``,
solved cell by cell on memoizing scalar Machines (the sequential
reference) vs ONE ``run_pair_grid`` call over the whole plane — every
reported field of every cell bit-identical.

``--check`` runs every benchmark at reduced size, enforces the
equivalence contracts, and writes no artifacts (CI mode). ``--only``
restricts either mode to one benchmark; an unknown arm name exits
non-zero listing the valid arms.

Usage: PYTHONPATH=src python scripts/bench_smoke.py [--output PATH] [--check]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis.experiments import fig08_pairwise_slowdowns  # noqa: E402
from repro.perf import engine_counters as ec  # noqa: E402
from repro.perf.stat import format_engine_stat  # noqa: E402
from repro.sim.engine import Machine  # noqa: E402
from repro.sim.tuning import EngineTuning  # noqa: E402

BENCH_APPS = (
    "429.mcf",
    "459.GemsFDTD",
    "x264",
    "h2",
    "ferret",
    "471.omnetpp",
    "462.libquantum",
    "streamcluster",
)

SEED_TUNING = EngineTuning(occupancy_tol=0.0)


def _time_arm(make_machine, repeats, workers=1):
    """Best-of-``repeats`` wall time; each repeat gets a cold Machine."""
    best, result, machine = None, None, None
    for _ in range(repeats):
        machine = make_machine()
        start = time.perf_counter()
        result = fig08_pairwise_slowdowns(machine, apps=list(BENCH_APPS), workers=workers)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result, machine


def run(repeats=3, workers=4):
    arms = {}
    results = {}
    # One untimed pass absorbs import and registry warm-up so the first
    # timed arm (the baseline) is not unfairly charged for it.
    _time_arm(lambda: Machine(memoize=False), 1)
    ec.reset_engine_counters()

    arms["seed"], results["seed"], _ = _time_arm(
        lambda: Machine(tuning=SEED_TUNING, memoize=False), repeats
    )
    arms["fast"], results["fast"], _ = _time_arm(
        lambda: Machine(memoize=False), repeats
    )
    snapshot = ec.engine_counters().snapshot()
    arms["memo"], results["memo"], memo_machine = _time_arm(
        lambda: Machine(), repeats
    )
    memo_delta = ec.engine_counters().delta(snapshot)
    arms["parallel_memo"], results["parallel_memo"], _ = _time_arm(
        lambda: Machine(), repeats, workers=workers
    )

    # -- the contract ------------------------------------------------------
    if results["memo"] != results["fast"]:
        raise SystemExit("FAIL: memoized results differ from unmemoized")
    if results["parallel_memo"] != results["memo"]:
        raise SystemExit("FAIL: parallel results differ from serial")
    drift = max(
        abs(results["fast"][k] - results["seed"][k]) / abs(results["seed"][k])
        for k in results["seed"]
    )
    if drift > 1e-5:
        raise SystemExit(f"FAIL: fast path drifted {drift:.2e} from the seed engine")

    return {
        "benchmark": "fig08_pairwise_slowdowns",
        "apps": list(BENCH_APPS),
        "pairs": len(results["seed"]),
        "repeats": repeats,
        "workers": workers,
        "wall_s": {arm: round(t, 4) for arm, t in arms.items()},
        "speedup": round(arms["seed"] / arms["parallel_memo"], 2),
        "speedup_serial": round(arms["seed"] / arms["memo"], 2),
        "memo_hit_rate": round(memo_machine.memo.hit_rate, 4),
        "max_rel_drift_vs_seed": drift,
        "equivalent": True,
    }, memo_delta


# -- compiled trace packs (BENCH_tracepack.json) ------------------------------


def _co_run_workloads(fg_accesses, bg_accesses):
    from repro.sim.trace_engine import TraceWorkload
    from repro.util.units import MB
    from repro.workloads.trace import StreamingTrace, ZipfTrace

    return [
        TraceWorkload(
            "fg",
            lambda: ZipfTrace(fg_accesses, 6 * MB, alpha=0.9, tid=0, seed=7),
            tid=0,
            think_cycles=6,
        ),
        TraceWorkload(
            "bg",
            lambda: StreamingTrace(bg_accesses, 32 * MB, tid=4),
            tid=4,
            think_cycles=2,
        ),
    ]


def _engine_signature(engine, stats):
    """Full bit-identity signature: per-workload stats plus every cache
    level's counters, per-domain splits, and final LLC contents."""
    hierarchy = engine.hierarchy
    levels = list(hierarchy.l1) + list(hierarchy.l2) + [hierarchy.llc.storage]
    return (
        sorted(
            (
                name,
                s.accesses,
                s.total_latency,
                s.cycles,
                s.llc_misses,
                sorted(s.hits_by_level.items()),
            )
            for name, s in stats.items()
        ),
        [sorted(level.stats.snapshot().items()) for level in levels],
        [sorted(level.stats.per_domain_accesses.items()) for level in levels],
        [sorted(level.stats.per_domain_misses.items()) for level in levels],
        hierarchy.llc.storage.occupancy_by_way(),
        sorted(hierarchy.llc.storage.resident_lines()),
    )


def _partitioned_engine():
    from repro.cache.llc import WayMask
    from repro.sim.trace_engine import TraceEngine

    engine = TraceEngine(prefetchers_on=False, backend="kernel")
    engine.hierarchy.set_way_mask(0, WayMask.contiguous(9, 0))
    engine.hierarchy.set_way_mask(2, WayMask.contiguous(3, 9))
    return engine


def run_tracepack(repeats=3, co_accesses=120_000, sweep_accesses=60_000):
    """Benchmark the compiled-pack path against the PR 2 kernel path.

    Three arms, every one contract-checked:

    - ``co_run``     — the 9/3-partitioned zipf+stream co-run on the
                       kernel fast loop (PR 2) vs ``run_packed`` over
                       warm packs, interleaved best-of-``repeats`` so
                       host noise hits both alike, full-signature
                       bit-identity enforced;
    - ``way_sweep``  — misses at all 12 allocations by per-mask kernel
                       re-simulation vs one vectorized pack profile,
                       hit-for-hit equal;
    - ``pack_cache`` — cold compile into a fresh cache dir, then a
                       second lookup with the in-process memo dropped:
                       must be served from disk with zero trace
                       generation (counter-verified).
    """
    import shutil
    import tempfile

    from repro.cache.native import epoch_batch_fn
    from repro.cache.profile import LLC_NUM_WAYS, WaySweep, brute_force_hits
    from repro.util.units import MB
    from repro.workloads import tracepack
    from repro.workloads.trace import ZipfTrace

    # -- co-run: PR 2 kernel fast loop vs compiled packs ------------------
    workloads = _co_run_workloads(co_accesses // 3, co_accesses // 4)
    packs = [tracepack.get_pack(w.trace_factory()) for w in workloads]

    # One untimed pass per arm absorbs one-time costs (the native epoch
    # kernel's compile/load, the permutation/PLRU table memos) so the
    # first timed repeat is not charged for them.
    _partitioned_engine().run(workloads, total_accesses=6_000)
    _partitioned_engine().run_packed(
        workloads, total_accesses=6_000, packs=packs
    )

    run_t = pack_t = run_sig = pack_sig = None
    for _ in range(repeats):
        engine = _partitioned_engine()
        start = time.perf_counter()
        stats = engine.run(workloads, total_accesses=co_accesses)
        elapsed = time.perf_counter() - start
        run_t = elapsed if run_t is None else min(run_t, elapsed)
        run_sig = _engine_signature(engine, stats)

        engine = _partitioned_engine()
        start = time.perf_counter()
        stats = engine.run_packed(
            workloads, total_accesses=co_accesses, packs=packs
        )
        elapsed = time.perf_counter() - start
        pack_t = elapsed if pack_t is None else min(pack_t, elapsed)
        pack_sig = _engine_signature(engine, stats)
    if run_sig != pack_sig:
        raise SystemExit("FAIL: packed co-run is not bit-identical to run()")

    # -- way sweep: per-mask kernel re-simulation vs one pack profile -----
    def factory():
        return ZipfTrace(sweep_accesses, 4 * MB, alpha=0.9, seed=3)

    ways = list(range(1, LLC_NUM_WAYS + 1))
    start = time.perf_counter()
    brute = [brute_force_hits(factory, w, backend="kernel") for w in ways]
    brute_t = time.perf_counter() - start
    profile_t = curve = None
    for _ in range(repeats):
        start = time.perf_counter()
        curve = WaySweep().run_pack(tracepack.get_pack(factory()))[0]
        elapsed = time.perf_counter() - start
        profile_t = elapsed if profile_t is None else min(profile_t, elapsed)
    profiled = [curve.hits(w) for w in ways]
    if profiled != brute:
        raise SystemExit("FAIL: pack profile diverges from per-mask re-simulation")

    # -- pack cache: cold compile, then a counter-verified disk hit -------
    tmp = tempfile.mkdtemp(prefix="repro-packcache-")
    try:
        base = ec.engine_counters().snapshot()
        start = time.perf_counter()
        first = tracepack.get_pack(factory(), cache=tmp)
        cold_t = time.perf_counter() - start
        cold = ec.engine_counters().delta(base)
        compiled = int(cold.get(ec.PACK_COMPILED_ACCESSES, 0))
        if cold.get(ec.PACK_MISSES, 0) != 1 or compiled != sweep_accesses:
            raise SystemExit("FAIL: cold pack build did not compile the trace")

        # Drop the per-process memo so the second lookup must re-open the
        # on-disk pack, not the cached object.
        tracepack._OPEN_PACKS.pop(os.path.join(tmp, first.key), None)
        base = ec.engine_counters().snapshot()
        start = time.perf_counter()
        second = tracepack.get_pack(factory(), cache=tmp)
        warm_t = time.perf_counter() - start
        warm = ec.engine_counters().delta(base)
        if warm.get(ec.PACK_HITS, 0) != 1 or warm.get(
            ec.PACK_COMPILED_ACCESSES, 0
        ):
            raise SystemExit("FAIL: second lookup did not hit the disk cache")
        if second.lines_list() != first.lines_list():
            raise SystemExit("FAIL: disk-cached pack differs from compiled pack")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "benchmark": "tracepack",
        "repeats": repeats,
        "native_kernel": epoch_batch_fn() is not None,
        "co_run": {
            "total_accesses": co_accesses,
            "wall_s": {"kernel": round(run_t, 4), "pack": round(pack_t, 4)},
            "speedup": round(run_t / pack_t, 2),
            "identical": True,
        },
        "way_sweep": {
            "accesses": sweep_accesses,
            "allocations": len(ways),
            "wall_s": {
                "brute_force": round(brute_t, 4),
                "pack_profile": round(profile_t, 4),
            },
            "speedup": round(brute_t / profile_t, 2),
            "identical": True,
        },
        "pack_cache": {
            "cold_s": round(cold_t, 4),
            "warm_s": round(warm_t, 4),
            "compiled_accesses": compiled,
            "second_run_compiled": 0,
            "disk_hit": True,
        },
    }


# -- N-domain epoch replay (BENCH_dynamic.json) -------------------------------


def _without_native(fn):
    """Run ``fn`` with the native kernels disabled (pure-Python paths)."""
    from repro.cache import native

    previous = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    native.reset()
    try:
        return fn()
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = previous
        native.reset()


def _four_domain_workloads(accesses):
    import functools

    from repro.sim.trace_engine import TraceWorkload
    from repro.util.units import MB
    from repro.workloads.trace import make_trace

    return [
        TraceWorkload(
            "fg",
            functools.partial(
                make_trace, "zipf", accesses, 6 * MB, alpha=0.9, tid=0, seed=7
            ),
            tid=0,
            think_cycles=6,
        ),
        TraceWorkload(
            "bg",
            functools.partial(make_trace, "stream", accesses, 32 * MB, tid=4),
            tid=4,
            think_cycles=2,
        ),
        TraceWorkload(
            "bg2",
            functools.partial(make_trace, "stream", accesses, 16 * MB, tid=2),
            tid=2,
            think_cycles=2,
        ),
        TraceWorkload(
            "bg3",
            functools.partial(
                make_trace, "chase", accesses, 2 * MB, tid=6, seed=11
            ),
            tid=6,
            think_cycles=4,
        ),
    ]


def _four_domain_engine():
    from repro.cache.llc import WayMask
    from repro.sim.trace_engine import TraceEngine

    engine = TraceEngine(prefetchers_on=False, backend="kernel")
    # Cores 0..3 (tids 0/2/4/6) under a 6/2/2/2 static partition.
    engine.hierarchy.set_way_mask(0, WayMask.contiguous(6, 0))
    engine.hierarchy.set_way_mask(1, WayMask.contiguous(2, 6))
    engine.hierarchy.set_way_mask(2, WayMask.contiguous(2, 8))
    engine.hierarchy.set_way_mask(3, WayMask.contiguous(2, 10))
    return engine


def _time_static_packed(workloads, packs, total_accesses):
    start = time.perf_counter()
    engine = _four_domain_engine()
    stats = engine.run_packed(
        workloads, total_accesses=total_accesses, packs=packs
    )
    elapsed = time.perf_counter() - start
    return elapsed, _engine_signature(engine, stats)


def _dynamic_workloads(accesses):
    import functools

    from repro.sim.trace_engine import TraceWorkload
    from repro.util.units import MB
    from repro.workloads.trace import make_trace

    return [
        TraceWorkload(
            "fg",
            functools.partial(
                make_trace, "chase", accesses, 8 * MB, tid=0, seed=7
            ),
            tid=0,
            think_cycles=6,
        ),
        TraceWorkload(
            "bg",
            functools.partial(make_trace, "stream", accesses, 8 * MB, tid=4),
            tid=4,
            think_cycles=2,
        ),
    ]


def _time_dynamic(workloads, packs, epoch_accesses, total_accesses):
    from repro.core.dynamic import DynamicPartitionController
    from repro.sim.trace_engine import TraceEngine

    # A fresh controller every run: its phase detector and action log are
    # stateful, and both replays must see identical decisions.
    engine = TraceEngine(prefetchers_on=False, backend="kernel")
    controller = DynamicPartitionController("fg", "bg")
    start = time.perf_counter()
    result = engine.run_dynamic(
        workloads,
        controller,
        epoch_accesses=epoch_accesses,
        total_accesses=total_accesses,
        packs=packs,
    )
    elapsed = time.perf_counter() - start
    signature = (
        _engine_signature(engine, result.stats),
        json.dumps(result.timeline, sort_keys=True),
        result.epochs,
    )
    return elapsed, signature, result


def run_dynamic(repeats=3, static_accesses=240_000, dyn_accesses=200_000,
                dyn_epoch=4_000):
    """Benchmark the N-domain epoch replay; BENCH_dynamic.json payload."""
    from repro.cache.native import epoch_batch_fn
    from repro.workloads import tracepack

    native_kernel = epoch_batch_fn() is not None

    # -- 4-domain static co-run: native epoch kernel vs Python driver -----
    workloads = _four_domain_workloads(static_accesses // 4)
    packs = [tracepack.get_pack(w.trace_factory()) for w in workloads]
    # Untimed passes absorb the one-time kernel compile/load and table
    # memos on both arms.
    _time_static_packed(workloads, packs, 6_000)
    _without_native(lambda: _time_static_packed(workloads, packs, 6_000))

    static_native_t = static_python_t = None
    static_native_sig = static_python_sig = None
    for _ in range(repeats):
        elapsed, sig = _time_static_packed(workloads, packs, static_accesses)
        static_native_t = (
            elapsed if static_native_t is None
            else min(static_native_t, elapsed)
        )
        static_native_sig = sig
        elapsed, sig = _without_native(
            lambda: _time_static_packed(workloads, packs, static_accesses)
        )
        static_python_t = (
            elapsed if static_python_t is None
            else min(static_python_t, elapsed)
        )
        static_python_sig = sig
    if static_native_sig != static_python_sig:
        raise SystemExit(
            "FAIL: 4-domain native run is not bit-identical to the Python "
            "epoch driver"
        )

    # -- 2-domain dynamic run: native epoch kernel vs Python driver -------
    dyn_workloads = _dynamic_workloads(dyn_accesses // 8)
    dyn_packs = [tracepack.get_pack(w.trace_factory()) for w in dyn_workloads]
    _time_dynamic(dyn_workloads, dyn_packs, dyn_epoch, 3 * dyn_epoch)
    _without_native(
        lambda: _time_dynamic(dyn_workloads, dyn_packs, dyn_epoch, 3 * dyn_epoch)
    )

    native_t = python_t = native_sig = python_sig = None
    native_result = python_result = None
    for _ in range(repeats):
        elapsed, sig, native_result = _time_dynamic(
            dyn_workloads, dyn_packs, dyn_epoch, dyn_accesses
        )
        native_t = elapsed if native_t is None else min(native_t, elapsed)
        native_sig = sig
        elapsed, sig, python_result = _without_native(
            lambda: _time_dynamic(
                dyn_workloads, dyn_packs, dyn_epoch, dyn_accesses
            )
        )
        python_t = elapsed if python_t is None else min(python_t, elapsed)
        python_sig = sig
    if native_sig != python_sig:
        raise SystemExit(
            "FAIL: dynamic epoch replay diverges between native and Python"
        )
    if python_result.native:
        raise SystemExit("FAIL: REPRO_NATIVE=0 arm still used the native kernel")
    if native_kernel and not native_result.native:
        raise SystemExit("FAIL: native arm fell back to the Python driver")

    return {
        "benchmark": "dynamic_epoch_replay",
        "repeats": repeats,
        "native_kernel": native_kernel,
        "static_4dom": {
            "domains": 4,
            "total_accesses": static_accesses,
            "wall_s": {
                "python": round(static_python_t, 4),
                "native": round(static_native_t, 4),
            },
            "speedup": round(static_python_t / static_native_t, 2),
            "identical": True,
        },
        "dynamic_2dom": {
            "domains": 2,
            "total_accesses": dyn_accesses,
            "epoch_accesses": dyn_epoch,
            "epochs": native_result.epochs,
            "reallocations": len(native_result.timeline),
            "wall_s": {
                "python": round(python_t, 4),
                "native": round(native_t, 4),
            },
            "speedup": round(python_t / native_t, 2),
            "timeline_identical": True,
            "identical": True,
        },
    }


# -- batched native replay (BENCH_batch.json) ---------------------------------


def _sweep_roster_cells(accesses):
    """The 12-cell measured way sweep: shared plus all disjoint splits."""
    from repro.cache.llc import WayMask
    from repro.cache.profile import LLC_NUM_WAYS
    from repro.sim.trace_engine import RosterCell

    workloads = _co_run_workloads(accesses // 3, accesses // 4)
    cells = [RosterCell(workloads=list(workloads), total_accesses=accesses)]
    for fg_ways in range(1, LLC_NUM_WAYS):
        cells.append(
            RosterCell(
                workloads=list(workloads),
                masks={
                    0: WayMask.contiguous(fg_ways, 0),
                    2: WayMask.contiguous(
                        LLC_NUM_WAYS - fg_ways, fg_ways
                    ),
                },
                total_accesses=accesses,
            )
        )
    return cells


def run_batch(repeats=3, accesses=120_000):
    """Benchmark the batched replay kernel; BENCH_batch.json payload.

    The sequential reference is exactly the PR-4 methodology: one fresh
    engine + one native per-cell replay call per allocation (what
    ``run_packed_roster(..., sequential=True)`` does). The batch arm is
    one ``repro_batch_walk`` call for all 12 cells. The contract is the
    established one — per-cell stats bit-identical — plus the threading
    one: ``REPRO_NATIVE_THREADS=1``, ``=4``, and ``REPRO_NATIVE=0`` all
    produce the same bytes.
    """
    from repro.cache import native
    from repro.sim.trace_engine import run_packed_roster

    # Untimed passes absorb pack compiles, kernel builds, table memos.
    run_packed_roster(_sweep_roster_cells(6_000), sequential=True)
    run_packed_roster(_sweep_roster_cells(6_000))

    cells = len(_sweep_roster_cells(accesses))
    seq_t = batch_t = seq_res = batch_res = None
    for _ in range(repeats):
        start = time.perf_counter()
        seq_res = run_packed_roster(
            _sweep_roster_cells(accesses), sequential=True
        )
        elapsed = time.perf_counter() - start
        seq_t = elapsed if seq_t is None else min(seq_t, elapsed)

        start = time.perf_counter()
        batch_res = run_packed_roster(_sweep_roster_cells(accesses))
        elapsed = time.perf_counter() - start
        batch_t = elapsed if batch_t is None else min(batch_t, elapsed)
    if batch_res != seq_res:
        raise SystemExit(
            "FAIL: batched roster is not bit-identical to the sequential "
            "per-cell replay"
        )

    one = run_packed_roster(_sweep_roster_cells(accesses), threads=1)
    four = run_packed_roster(_sweep_roster_cells(accesses), threads=4)
    off = _without_native(
        lambda: run_packed_roster(_sweep_roster_cells(accesses))
    )
    if not (one == batch_res and four == batch_res and off == batch_res):
        raise SystemExit(
            "FAIL: batched roster varies with thread count or REPRO_NATIVE"
        )

    threading = native.threading_status()
    return {
        "benchmark": "batch_replay",
        "repeats": repeats,
        "cells": cells,
        "total_accesses_per_cell": accesses,
        "native_kernel": native.batch_walk_fn() is not None,
        "threading": threading["mode"],
        "kernel_status": native.kernel_status().get("batchwalk"),
        "wall_s": {
            "sequential": round(seq_t, 4),
            "batch": round(batch_t, 4),
        },
        "speedup": round(seq_t / batch_t, 2),
        "identical": True,
        "thread_invariant": True,
    }


# -- epoch-batched dynamic rosters (BENCH_dynbatch.json) ----------------------


def _dynbatch_roster(n, epoch_accesses, total_accesses):
    """N independent dynamic-controller cells.

    Chase/zipf foregrounds with staggered footprints: their MPKI moves
    when the controller reallocates, so the roster produces non-empty
    timelines — without reallocations the bench would prove nothing
    about the banked mask writes. Controllers are stateful, so every
    arm builds the roster fresh through this factory.
    """
    from repro.core.dynamic import DynamicPartitionController
    from repro.sim.trace_engine import DynamicRosterCell, TraceWorkload
    from repro.util.units import MB
    from repro.workloads.trace import make_trace

    def pair(i, length=5_000):
        fg_kind = ("chase", "zipf", "chase")[i % 3]
        fg_kw = (
            {"alpha": 0.9, "seed": 7 + i}
            if fg_kind == "zipf"
            else {"seed": 7 + i}
        )
        fg_mb = (1 + i % 4) * MB
        return [
            TraceWorkload(
                "fg",
                lambda k=fg_kind, n=length, m=fg_mb, kw=fg_kw: make_trace(
                    k, n, m, tid=0, **kw
                ),
                tid=0,
                think_cycles=6,
            ),
            TraceWorkload(
                "bg",
                lambda n=length: make_trace("stream", n, 8 * MB, tid=4),
                tid=4,
                think_cycles=2,
            ),
        ]

    return [
        DynamicRosterCell(
            workloads=pair(i),
            controller=DynamicPartitionController("fg", "bg"),
            epoch_accesses=epoch_accesses,
            total_accesses=total_accesses,
        )
        for i in range(n)
    ]


def _dynbatch_signature(results):
    """Everything observable, JSON-canonical: per-cell stats, the full
    reallocation timeline, actions, epoch counts."""
    return json.dumps(
        [
            {
                "stats": {
                    name: [
                        s.accesses,
                        s.cycles,
                        s.total_latency,
                        s.llc_misses,
                        sorted(s.hits_by_level.items()),
                    ]
                    for name, s in sorted(r.stats.items())
                },
                "timeline": r.timeline,
                "actions": [
                    [a.time_s, a.fg_ways, a.reason, a.mpki] for a in r.actions
                ],
                "epochs": r.epochs,
            }
            for r in results
        ],
        sort_keys=True,
    )


def run_dynbatch(repeats=3, cells=16, epoch_accesses=1_000,
                 total_accesses=20_000):
    """Benchmark the epoch-batched dynamic roster; BENCH_dynbatch.json.

    The sequential reference is the PR-7 methodology: each cell on its
    own fresh engine via ``run_dynamic`` (one native call per cell per
    epoch). The batched arm advances the whole roster one epoch per
    ``repro_epoch_batch`` call and steps every controller host-side
    between calls. Contracts: per-cell stats bit-identical, reallocation
    timelines byte-equal, and the bytes invariant across
    ``REPRO_NATIVE_THREADS=1`` / ``=4`` / ``REPRO_NATIVE=0``.
    """
    from repro.cache import native
    from repro.sim.trace_engine import run_dynamic_roster

    def roster():
        return _dynbatch_roster(cells, epoch_accesses, total_accesses)

    # Untimed warm-ups absorb pack compiles and the epoch-batch build.
    warm = 4 * epoch_accesses
    run_dynamic_roster(
        _dynbatch_roster(2, epoch_accesses, warm), sequential=True
    )
    run_dynamic_roster(_dynbatch_roster(2, epoch_accesses, warm))

    seq_t = batch_t = seq_res = batch_res = None
    for _ in range(repeats):
        start = time.perf_counter()
        seq_res = run_dynamic_roster(roster(), sequential=True)
        elapsed = time.perf_counter() - start
        seq_t = elapsed if seq_t is None else min(seq_t, elapsed)

        start = time.perf_counter()
        batch_res = run_dynamic_roster(roster())
        elapsed = time.perf_counter() - start
        batch_t = elapsed if batch_t is None else min(batch_t, elapsed)

    seq_sig = _dynbatch_signature(seq_res)
    batch_sig = _dynbatch_signature(batch_res)
    if batch_sig != seq_sig:
        raise SystemExit(
            "FAIL: batched dynamic roster is not bit-identical to the "
            "sequential per-cell run_dynamic"
        )
    seq_timelines = json.dumps([r.timeline for r in seq_res], sort_keys=True)
    batch_timelines = json.dumps(
        [r.timeline for r in batch_res], sort_keys=True
    )
    if batch_timelines != seq_timelines:
        raise SystemExit(
            "FAIL: reallocation timelines diverge between the batched and "
            "sequential dynamic paths"
        )
    reallocations = sum(len(r.timeline) for r in batch_res)
    if not reallocations:
        raise SystemExit(
            "FAIL: no cell reallocated; the roster exercises nothing about "
            "the banked mask writes"
        )

    one = _dynbatch_signature(run_dynamic_roster(roster(), threads=1))
    four = _dynbatch_signature(run_dynamic_roster(roster(), threads=4))
    off = _dynbatch_signature(
        _without_native(lambda: run_dynamic_roster(roster()))
    )
    if not (one == batch_sig and four == batch_sig and off == batch_sig):
        raise SystemExit(
            "FAIL: dynamic roster varies with thread count or REPRO_NATIVE"
        )

    threading = native.threading_status("epochbatch")
    return {
        "benchmark": "dynbatch_roster",
        "repeats": repeats,
        "cells": cells,
        "epoch_accesses": epoch_accesses,
        "total_accesses_per_cell": total_accesses,
        "epochs_per_cell": max(r.epochs for r in batch_res),
        "reallocations": reallocations,
        "native_kernel": native.epoch_batch_fn() is not None,
        "threading": threading["mode"],
        "kernel_status": native.kernel_status().get("epochbatch"),
        "wall_s": {
            "sequential": round(seq_t, 4),
            "batched": round(batch_t, 4),
        },
        "speedup": round(seq_t / batch_t, 2),
        "identical": True,
        "timeline_identical": True,
        "thread_invariant": True,
    }


# -- policy layer on the trace backend (BENCH_policy.json) --------------------


def run_policy_bench(repeats=3, accesses=60_000):
    """Benchmark the biased-split search through the backend protocol.

    Two arms over the same zipf+stream pair:

    - ``direct``  — the pre-backend methodology: one
                    ``way_allocation_sweep`` profiled co-run, splits
                    scored by hand from the hit curves, the biased
                    tolerance rule applied inline;
    - ``backend`` — ``policy_biased`` on :class:`TraceBackend` (the
                    profile-scored sweep plus one re-measured co-run of
                    the chosen split).

    Contract: both arms choose the same split — the policy layer adds
    routing, not a different search.
    """
    from repro.analysis.experiments import trace_pair_spec
    from repro.backend import TraceBackend
    from repro.core.policies import _BIAS_TOLERANCE, policy_biased

    backend = TraceBackend(total_accesses=accesses)
    spec = trace_pair_spec(
        "zipf", "stream", accesses=accesses, footprint_mb=4.0, seed=3
    )
    llc_ways = backend.capabilities().llc_ways

    def direct_choice():
        from repro.sim.trace_engine import way_allocation_sweep

        _, curves = way_allocation_sweep(
            [spec.fg, spec.bg], total_accesses=accesses
        )
        fg_curve = curves[spec.fg.tid // 2]
        bg_curve = curves[spec.bg.tid // 2]
        scored = [
            (
                w,
                float(fg_curve.misses(w)),
                float(bg_curve.hits(llc_ways - w)),
            )
            for w in range(1, llc_ways)
        ]
        best_cost = min(cost for _, cost, _ in scored)
        cutoff = best_cost * (1.0 + _BIAS_TOLERANCE)
        candidates = [
            (w, cost, rate) for w, cost, rate in scored if cost <= cutoff
        ]
        return max(candidates, key=lambda item: (item[2], -item[0]))[0]

    # Untimed passes warm the pack cache and the native kernels.
    direct_choice()
    policy_biased(backend, spec)

    direct_t = chosen_direct = None
    for _ in range(repeats):
        start = time.perf_counter()
        chosen_direct = direct_choice()
        elapsed = time.perf_counter() - start
        direct_t = elapsed if direct_t is None else min(direct_t, elapsed)

    backend_t = outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = policy_biased(backend, spec)
        elapsed = time.perf_counter() - start
        backend_t = elapsed if backend_t is None else min(backend_t, elapsed)

    if outcome.fg_ways != chosen_direct:
        raise SystemExit(
            f"FAIL: backend biased split {outcome.fg_ways} differs from the "
            f"direct sweep's {chosen_direct}"
        )

    return {
        "benchmark": "policy_biased_trace",
        "repeats": repeats,
        "accesses": accesses,
        "chosen_fg_ways": outcome.fg_ways,
        "chosen_bg_ways": outcome.bg_ways,
        "wall_s": {
            "direct": round(direct_t, 4),
            "backend": round(backend_t, 4),
        },
        "identical_split": True,
    }


# -- fleet-scale campaign engine (BENCH_campaign.json) ------------------------


def _campaign_manifest(accesses, geometries):
    """A batchable campaign grid: 5 fixed-mask policies x 4 pairs x N
    geometries (distinct seeds), all roster-eligible."""
    from repro.campaign import manifest_from_dict

    return manifest_from_dict(
        {
            "name": "bench-campaign",
            "backends": ["trace"],
            "policies": ["shared", "fair", "static-3", "static-6", "static-9"],
            "pairs": [
                ["zipf", "stream"],
                ["stride", "zipf"],
                ["chase", "stream"],
                ["zipf", "stride"],
            ],
            "geometries": [
                {
                    "accesses": accesses,
                    "footprint_mb": 2.0,
                    "bg_footprint_mb": 4.0,
                    "alpha": 0.9,
                    "seed": seed,
                }
                for seed in range(1, geometries + 1)
            ],
        }
    )


def run_campaign_bench(repeats=1, accesses=3_000, geometries=10,
                       shard_size=64):
    """Benchmark the campaign engine; BENCH_campaign.json payload.

    The baseline is the sequential per-cell loop — one fresh backend,
    one ``run_campaign_cell`` per cell, the methodology every earlier
    bench used. The campaign arm executes the same cells through
    ``run_campaign``: roster shards of ``shard_size`` cells, ONE batched
    native call per shard, checkpointed to a multi-shard store.

    Contracts: every campaign record's metrics equal the per-cell
    reference record for the same content address exactly, and a
    ``--resume`` re-run over the completed store replays zero cells
    (counter-verified: no trace accesses, no batch cells, no campaign
    cells run).
    """
    import shutil
    import tempfile

    from repro.campaign import expand_manifest, run_campaign
    from repro.campaign.runner import _materialize_packs, run_campaign_cell
    from repro.sim.trace_engine import run_packed_roster

    manifest = _campaign_manifest(accesses, geometries)
    cells = expand_manifest(manifest)

    # Untimed warm-up: compile every trace pack once (both arms replay
    # from warm packs) and absorb the batch kernel's one-time load.
    _materialize_packs(cells)
    run_packed_roster(_sweep_roster_cells(3_000))

    seq_t = None
    reference = None
    for _ in range(repeats):
        start = time.perf_counter()
        records = [run_campaign_cell(cell) for cell in cells]
        elapsed = time.perf_counter() - start
        seq_t = elapsed if seq_t is None else min(seq_t, elapsed)
        reference = {r.provenance["cell_id"]: r for r in records}

    camp_t = result = store = None
    tmp = tempfile.mkdtemp(prefix="repro-campaign-")
    try:
        for i in range(repeats):
            store = os.path.join(tmp, f"store-{i}")
            start = time.perf_counter()
            result = run_campaign(
                manifest, store, cells=cells, shard_size=shard_size
            )
            elapsed = time.perf_counter() - start
            camp_t = elapsed if camp_t is None else min(camp_t, elapsed)

        if not result.complete or result.cells_run != len(cells):
            raise SystemExit("FAIL: campaign did not run every cell")
        for cell_id, record in reference.items():
            if result.records[cell_id].metrics != record.metrics:
                raise SystemExit(
                    "FAIL: campaign record differs from the per-cell "
                    f"reference for cell {cell_id}"
                )

        # Resume over the completed store: zero replays, counter-proven.
        base = ec.engine_counters().snapshot()
        resumed = run_campaign(
            manifest, store, cells=cells, resume=True, shard_size=shard_size
        )
        delta = ec.engine_counters().delta(base)
        replayed = (
            delta.get(ec.TRACE_ACCESSES, 0)
            + delta.get(ec.BATCH_CELLS, 0)
            + delta.get(ec.CAMPAIGN_CELLS_RUN, 0)
        )
        if resumed.cells_run or replayed:
            raise SystemExit(
                "FAIL: resume over a complete store replayed "
                f"{resumed.cells_run} cells ({replayed} counter events)"
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "benchmark": "campaign",
        "repeats": repeats,
        "cells": len(cells),
        "accesses_per_cell": accesses,
        "shard_size": shard_size,
        "roster_shards": result.roster_shards,
        "fallback_shards": result.fallback_shards,
        "wall_s": {
            "sequential": round(seq_t, 4),
            "campaign": round(camp_t, 4),
        },
        "speedup": round(seq_t / camp_t, 2),
        "identical": True,
        "resume_cells_replayed": 0,
    }


# -- vectorized analytical grid solver (BENCH_gridsolve.json) -----------------


_GRID_PAIRS = (
    ("x264", "429.mcf"),
    ("429.mcf", "459.GemsFDTD"),
    ("459.GemsFDTD", "h2"),
    ("h2", "x264"),
    ("x264", "459.GemsFDTD"),
    ("429.mcf", "h2"),
)
_GRID_FREQS = (1.6e9, 2.0e9, 2.3e9, 2.7e9, 3.0e9, 3.4e9)

_GRID_PAIR_FIELDS = (
    "makespan_s", "socket_energy_j", "wall_energy_j", "pp0_energy_j",
    "bg_rate_ips",
)
_GRID_RUN_FIELDS = (
    "name", "runtime_s", "instructions", "llc_misses", "llc_accesses",
    "socket_energy_j", "wall_energy_j", "avg_power_w", "pp0_energy_j",
)


def _grid_cells(pairs, splits, freqs):
    from repro.cpu.config import SandyBridgeConfig
    from repro.runtime.harness import paper_pair_allocations
    from repro.sim.gridsolve import GridCell
    from repro.workloads import get_application

    base = SandyBridgeConfig()
    cells = []
    for freq in freqs:
        config = base.at_frequency(freq)
        for fg_name, bg_name in pairs:
            fg = get_application(fg_name)
            bg = get_application(bg_name)
            for fg_ways in splits:
                fg_alloc, bg_alloc = paper_pair_allocations(
                    fg, bg, fg_ways, 12 - fg_ways, 12
                )
                cells.append(
                    GridCell(fg, bg, fg_alloc, bg_alloc, config=config)
                )
    return cells


def _grid_identical(scalar, grid):
    for expected, got in zip(scalar, grid):
        for field in _GRID_PAIR_FIELDS:
            if getattr(expected, field) != getattr(got, field):
                return False
        for run_field in _GRID_RUN_FIELDS:
            if getattr(expected.fg, run_field) != getattr(got.fg, run_field):
                return False
            if getattr(expected.bg, run_field) != getattr(got.bg, run_field):
                return False
    return len(scalar) == len(grid)


def run_gridsolve(repeats=3, pairs=_GRID_PAIRS, splits=tuple(range(1, 12)),
                  freqs=_GRID_FREQS):
    """Benchmark the vectorized grid solver; BENCH_gridsolve.json payload.

    The workload is the shape the campaign planner batches: every
    disjoint split of several multi-phase pairs across a frequency
    ladder, at ``occupancy_tol=0`` (the strictest schedule — no early
    exit, no closed forms, every cell runs the fixed 40-iteration damped
    occupancy loop). The scalar baseline is one memoizing ``Machine``
    per operating point driving ``run_pair`` cell by cell — the best
    pre-existing methodology — and the grid arm is ONE
    ``run_pair_grid`` call for the whole plane. The contract is
    bit-identity on every reported field of every cell.
    """
    from repro.sim.gridsolve import run_pair_grid

    cells = _grid_cells(pairs, splits, freqs)

    def scalar_pass():
        machines = {}
        results = []
        for cell in cells:
            machine = machines.get(id(cell.config))
            if machine is None:
                machine = Machine(
                    config=cell.config, tuning=SEED_TUNING, memoize=True
                )
                machines[id(cell.config)] = machine
            results.append(
                machine.run_pair(
                    cell.fg, cell.bg, cell.fg_allocation, cell.bg_allocation
                )
            )
        return results

    # Untimed warm-up absorbs registry and phase-table construction.
    run_pair_grid(cells[: len(pairs)], tuning=SEED_TUNING)

    scalar_t = scalar_res = None
    for _ in range(repeats):
        start = time.perf_counter()
        scalar_res = scalar_pass()
        elapsed = time.perf_counter() - start
        scalar_t = elapsed if scalar_t is None else min(scalar_t, elapsed)

    grid_t = grid_res = None
    for _ in range(repeats):
        start = time.perf_counter()
        grid_res = run_pair_grid(cells, tuning=SEED_TUNING)
        elapsed = time.perf_counter() - start
        grid_t = elapsed if grid_t is None else min(grid_t, elapsed)

    if not _grid_identical(scalar_res, grid_res):
        raise SystemExit(
            "FAIL: vectorized grid is not bit-identical to the scalar "
            "engine at tol=0"
        )

    return {
        "benchmark": "gridsolve",
        "repeats": repeats,
        "cells": len(cells),
        "pairs": len(pairs),
        "splits": len(splits),
        "operating_points": len(freqs),
        "occupancy_tol": 0.0,
        "wall_s": {
            "scalar": round(scalar_t, 4),
            "grid": round(grid_t, 4),
        },
        "speedup": round(scalar_t / grid_t, 2),
        "identical": True,
    }


# -- LFOC-style cluster policy over N-tenant groups (BENCH_cluster.json) ------


def run_cluster(repeats=3, cells=4, accesses=30_000):
    """Benchmark the N-tenant group replay behind the cluster policy.

    Each cell is a 4-tenant group (zipf/stream/chase/stream, staggered
    seeds). Way-utility profiling and the LFOC-style lookup-table
    apportioning run once per cell; the bench then replays every cell's
    planned GroupSplit two ways — ONE batched multi-domain
    ``run_packed_roster`` call for the whole roster, and the sequential
    per-cell reference (fresh engine per cell, the pre-group
    methodology). Contracts: per-tenant stats bit-identical, the first
    cell additionally verified against a hand-built sequential engine
    (``verify_trace_group_replay``), and the batched bytes invariant
    across ``REPRO_NATIVE_THREADS=1`` / ``=4`` / ``REPRO_NATIVE=0``.
    """
    from repro.analysis.experiments import (
        trace_group_spec,
        verify_trace_group_replay,
    )
    from repro.backend import TraceBackend
    from repro.cache import native
    from repro.core.clustering import cluster_tenants
    from repro.core.policies import run_group_policy
    from repro.sim.trace_engine import run_packed_roster

    backend = TraceBackend(total_accesses=accesses)
    llc_ways = backend.capabilities().llc_ways
    kinds = ("zipf", "stream", "chase", "stream")
    groups = [
        trace_group_spec(kinds, accesses=accesses, seed=1 + i)
        for i in range(cells)
    ]
    plans = []
    for group in groups:
        utilities = backend.way_utility(group)
        plans.append(
            cluster_tenants(utilities, names=group.names, llc_ways=llc_ways)
        )

    def roster():
        return [
            backend.group_roster_cell(group, plan.split)
            for group, plan in zip(groups, plans)
        ]

    # Untimed passes absorb pack compiles, kernel builds, table memos.
    run_packed_roster(roster()[:1], sequential=True)
    run_packed_roster(roster()[:1])

    seq_t = batch_t = seq_res = batch_res = None
    for _ in range(repeats):
        start = time.perf_counter()
        seq_res = run_packed_roster(roster(), sequential=True)
        elapsed = time.perf_counter() - start
        seq_t = elapsed if seq_t is None else min(seq_t, elapsed)

        start = time.perf_counter()
        batch_res = run_packed_roster(roster())
        elapsed = time.perf_counter() - start
        batch_t = elapsed if batch_t is None else min(batch_t, elapsed)
    if batch_res != seq_res:
        raise SystemExit(
            "FAIL: batched group roster is not bit-identical to the "
            "sequential per-cell replay"
        )

    outcome = run_group_policy(backend, groups[0], "cluster")
    compared = verify_trace_group_replay(backend, groups[0], outcome)

    one = run_packed_roster(roster(), threads=1)
    four = run_packed_roster(roster(), threads=4)
    off = _without_native(lambda: run_packed_roster(roster()))
    if not (one == batch_res and four == batch_res and off == batch_res):
        raise SystemExit(
            "FAIL: group roster varies with thread count or REPRO_NATIVE"
        )

    threading = native.threading_status()
    return {
        "benchmark": "cluster_group",
        "repeats": repeats,
        "cells": cells,
        "tenants": len(kinds),
        "total_accesses_per_cell": accesses,
        "classes": dict(plans[0].classes),
        "way_counts": list(plans[0].split.way_counts),
        "reference_comparisons": compared,
        "native_kernel": native.batch_walk_fn() is not None,
        "threading": threading["mode"],
        "kernel_status": native.kernel_status().get("batchwalk"),
        "wall_s": {
            "sequential": round(seq_t, 4),
            "batch": round(batch_t, 4),
        },
        "speedup": round(seq_t / batch_t, 2),
        "identical": True,
        "thread_invariant": True,
    }


ARMS = ("engine", "tracepack", "dynamic", "policy", "batch", "dynbatch",
        "campaign", "gridsolve", "cluster")


def main(argv=None):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=os.path.join(root, "BENCH_engine.json")
    )
    parser.add_argument(
        "--tracepack-output", default=os.path.join(root, "BENCH_tracepack.json")
    )
    parser.add_argument(
        "--dynamic-output", default=os.path.join(root, "BENCH_dynamic.json")
    )
    parser.add_argument(
        "--policy-output", default=os.path.join(root, "BENCH_policy.json")
    )
    parser.add_argument(
        "--batch-output", default=os.path.join(root, "BENCH_batch.json")
    )
    parser.add_argument(
        "--dynbatch-output", default=os.path.join(root, "BENCH_dynbatch.json")
    )
    parser.add_argument(
        "--campaign-output", default=os.path.join(root, "BENCH_campaign.json")
    )
    parser.add_argument(
        "--gridsolve-output",
        default=os.path.join(root, "BENCH_gridsolve.json"),
    )
    parser.add_argument(
        "--cluster-output", default=os.path.join(root, "BENCH_cluster.json")
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--only",
        metavar="ARM",
        help="run just one benchmark arm: " + ", ".join(ARMS),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: reduced sizes, enforce the equivalence contracts, "
        "write no artifacts",
    )
    args = parser.parse_args(argv)
    if args.only and args.only not in ARMS:
        parser.error(
            f"unknown benchmark arm {args.only!r}; "
            f"valid arms: {', '.join(ARMS)}"
        )
    wanted = {args.only} if args.only else set(ARMS)

    if args.check:
        notes = []
        if "engine" in wanted:
            summary, _ = run(repeats=1, workers=args.workers)
            notes.append(
                f"engine drift {summary['max_rel_drift_vs_seed']:.1e}"
            )
        if "tracepack" in wanted:
            pack_summary = run_tracepack(
                repeats=1, co_accesses=36_000, sweep_accesses=20_000
            )
            notes.append(
                f"pack co-run {pack_summary['co_run']['speedup']}x "
                f"(native={pack_summary['native_kernel']}), "
                "disk-cache hit verified"
            )
        if "dynamic" in wanted:
            dynamic_summary = run_dynamic(
                repeats=1, static_accesses=48_000, dyn_accesses=48_000,
                dyn_epoch=3_000,
            )
            notes.append(
                f"4-domain static and dynamic epoch replay bit-identical "
                f"(native={dynamic_summary['native_kernel']}, "
                f"{dynamic_summary['dynamic_2dom']['reallocations']} "
                "reallocations byte-equal)"
            )
        if "policy" in wanted:
            policy_summary = run_policy_bench(repeats=1, accesses=20_000)
            notes.append(
                f"biased split via backend == direct sweep "
                f"({policy_summary['chosen_fg_ways']}/"
                f"{policy_summary['chosen_bg_ways']} ways)"
            )
        if "batch" in wanted:
            batch_summary = run_batch(repeats=1, accesses=12_000)
            notes.append(
                f"{batch_summary['cells']}-cell batched roster bit-identical "
                f"and thread-invariant "
                f"(native={batch_summary['native_kernel']}, "
                f"threading={batch_summary['threading']})"
            )
        if "dynbatch" in wanted:
            dynbatch_summary = run_dynbatch(
                repeats=1, cells=6, epoch_accesses=500, total_accesses=8_000
            )
            notes.append(
                f"{dynbatch_summary['cells']}-cell dynamic roster "
                f"bit-identical, timelines byte-equal, thread-invariant "
                f"(native={dynbatch_summary['native_kernel']}, "
                f"threading={dynbatch_summary['threading']}, "
                f"{dynbatch_summary['reallocations']} reallocations)"
            )
        if "campaign" in wanted:
            campaign_summary = run_campaign_bench(
                repeats=1, accesses=1_500, geometries=2
            )
            notes.append(
                f"{campaign_summary['cells']}-cell campaign identical to "
                f"per-cell reference, resume replayed "
                f"{campaign_summary['resume_cells_replayed']} cells"
            )
        if "gridsolve" in wanted:
            grid_summary = run_gridsolve(
                repeats=1, pairs=_GRID_PAIRS[:2], splits=(1, 4, 6, 11),
                freqs=_GRID_FREQS[:2],
            )
            notes.append(
                f"{grid_summary['cells']}-cell analytical grid "
                f"{grid_summary['speedup']}x, bit-identical at tol=0"
            )
        if "cluster" in wanted:
            cluster_summary = run_cluster(repeats=1, cells=2, accesses=10_000)
            notes.append(
                f"{cluster_summary['cells']}x{cluster_summary['tenants']}-"
                f"tenant group roster bit-identical and thread-invariant "
                f"(native={cluster_summary['native_kernel']}, "
                f"{cluster_summary['reference_comparisons']} reference "
                "comparisons)"
            )
        print(format_engine_stat(ec.engine_counters().snapshot()))
        print("\ncheck PASS: " + "; ".join(notes))
        return 0

    outputs = []
    counters = None
    if "engine" in wanted:
        summary, counters = run(repeats=args.repeats, workers=args.workers)
        outputs.append((args.output, summary))
    if "tracepack" in wanted:
        outputs.append(
            (args.tracepack_output, run_tracepack(repeats=args.repeats))
        )
    if "dynamic" in wanted:
        outputs.append((args.dynamic_output, run_dynamic(repeats=args.repeats)))
    if "policy" in wanted:
        outputs.append(
            (args.policy_output, run_policy_bench(repeats=args.repeats))
        )
    if "batch" in wanted:
        outputs.append((args.batch_output, run_batch(repeats=args.repeats)))
    if "dynbatch" in wanted:
        outputs.append(
            (args.dynbatch_output, run_dynbatch(repeats=args.repeats))
        )
    if "campaign" in wanted:
        outputs.append(
            (args.campaign_output, run_campaign_bench(repeats=args.repeats))
        )
    if "gridsolve" in wanted:
        outputs.append(
            (args.gridsolve_output, run_gridsolve(repeats=args.repeats))
        )
    if "cluster" in wanted:
        outputs.append(
            (args.cluster_output, run_cluster(repeats=args.repeats))
        )

    # Every artifact records where its numbers came from: CPU budget,
    # native gate, kernel and threading status, REPRO_NATIVE* knobs.
    from repro.perf.host import host_provenance

    host = host_provenance()
    for _, payload in outputs:
        payload["host"] = host

    for path, payload in outputs:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(json.dumps(payload, indent=1))
        print()
    print(format_engine_stat(counters))
    for path, _ in outputs:
        print(f"written to {os.path.abspath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
