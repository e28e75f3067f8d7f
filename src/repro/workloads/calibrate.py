"""Bridging the two engines: measure miss-ratio curves on the
address-level simulator and fit the statistical model's curve form.

The paper measures each application's cache sensitivity by sweeping the
way allocation on real hardware (Section 3.2); this module does the same
sweep over synthetic traces on the line-granularity simulator, and fits
``floor + sum(a_k exp(-c/s_k))`` with scipy so a measured behaviour can
be promoted into an :class:`~repro.workloads.base.MissRatioCurve`.
"""

import numpy as np
from scipy.optimize import curve_fit

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.llc import WayMask
from repro.util.errors import ValidationError
from repro.workloads.base import MissRatioCurve


def _materialize(trace_factory):
    """One full pass of the trace as a list of MemoryAccess.

    Compilable generators go through the trace-pack cache: the stream
    comes back from the content-addressed columns (memmapped from disk
    on repeat runs) instead of re-executing the generator, and
    ``verify_pack``'s contract keeps it element-for-element identical.
    Anything else is materialized directly.
    """
    source = trace_factory()
    from repro.workloads.trace import _TraceBase

    if isinstance(source, _TraceBase):
        from repro.workloads.tracepack import get_pack

        return list(get_pack(source).accesses())
    return list(source)


def measure_llc_miss_ratio(trace_factory, ways, warmup_fraction=0.5):
    """Replay a trace at a given way allocation; return the LLC miss
    ratio over the measured (post-warmup) portion.

    ``trace_factory()`` must return a fresh iterable of MemoryAccess;
    the stream is materialized once (through the pack cache when the
    trace is compilable) and reused for the warm-up and measured passes.
    """
    if not 1 <= ways <= 12:
        raise ValidationError("ways must be in 1..12")
    hierarchy = CacheHierarchy()
    hierarchy.set_prefetchers(enabled=False)
    hierarchy.set_way_mask(0, WayMask.contiguous(ways, 0))

    warm = _materialize(trace_factory)
    cut = int(len(warm) * warmup_fraction)
    hierarchy.run_trace(warm[:cut] if cut else warm)
    totals = hierarchy.run_trace(warm)
    llc_refs = totals["llc_hits"] + totals["llc_misses"]
    if llc_refs == 0:
        return 0.0
    return totals["llc_misses"] / llc_refs


def profile_mrc(trace_factory, way_counts=(1, 2, 4, 6, 8, 10, 12),
                warmup_fraction=0.5):
    """Single-replay MRC via the LRU stack-distance profiler.

    Where :func:`measure_mrc` re-simulates the whole hierarchy once per
    way count, this attaches a :class:`~repro.cache.profile.WayProfiler`
    (a per-domain UMON) to the LLC probe stream of ONE hierarchy
    replay and reads ``miss_ratio(ways)`` for every allocation from the
    resulting stack-distance histogram. The warm-up slice is replayed
    first with the profiler attached so its auxiliary directory is warm,
    then snapshotted away so only the measured pass is counted.

    The profiler models true LRU over the filtered (post-L1/L2) stream,
    so the curve is the UMON approximation of the PLRU LLC rather than a
    per-mask re-simulation; the two track each other closely and the
    profile is ~an order of magnitude cheaper for a full sweep.
    """
    from repro.cache.profile import WayProfiler

    hierarchy = CacheHierarchy()
    hierarchy.set_prefetchers(enabled=False)
    llc = hierarchy.llc.storage
    for ways in way_counts:
        if not 1 <= ways <= llc.num_ways:
            raise ValidationError(f"ways must be in 1..{llc.num_ways}")
    profiler = WayProfiler(
        num_sets=llc.num_sets,
        num_ways=llc.num_ways,
        indexing=llc.indexing,
        num_domains=hierarchy.num_cores,
    )
    hierarchy.llc_profiler = profiler
    warm = _materialize(trace_factory)
    cut = int(len(warm) * warmup_fraction)
    hierarchy.run_trace(warm[:cut] if cut else warm)
    base = profiler.snapshot()
    hierarchy.run_trace(warm)
    hierarchy.llc_profiler = None
    curves = [
        profiler.delta_curve(base, domain=d) for d in range(hierarchy.num_cores)
    ]
    total = sum(c.accesses for c in curves)

    def ratio(ways):
        if total == 0:
            return 0.0
        return sum(c.misses(ways) for c in curves) / total

    return {ways * 0.5: ratio(ways) for ways in way_counts}


def measure_mrc(trace_factory, way_counts=(1, 2, 4, 6, 8, 10, 12),
                method="replay"):
    """Sweep way allocations; returns {capacity_mb: miss_ratio}.

    ``method="replay"`` re-simulates per allocation (ground truth);
    ``method="profile"`` reads every point from one profiled replay
    (:func:`profile_mrc`).
    """
    if method == "profile":
        return profile_mrc(trace_factory, way_counts)
    if method != "replay":
        raise ValidationError(f"unknown MRC method {method!r}")
    return {
        ways * 0.5: measure_llc_miss_ratio(trace_factory, ways)
        for ways in way_counts
    }


def _model(c, floor, a1, s1):
    return floor + a1 * np.exp(-c / s1)


def fit_mrc(measured, direct_mapped_penalty=0.25):
    """Fit a MissRatioCurve to measured {capacity_mb: miss_ratio} points.

    The 0.5 MB point is excluded when it came from a 1-way (direct-
    mapped) allocation — the paper treats that case as pathological.
    """
    points = {
        mb: ratio for mb, ratio in measured.items() if mb > 0.5 or len(measured) < 3
    }
    if len(points) < 3:
        raise ValidationError("need at least three capacity points to fit")
    capacities = np.array(sorted(points))
    ratios = np.array([points[c] for c in capacities])

    floor_guess = float(ratios.min())
    amp_guess = max(float(ratios.max() - ratios.min()), 1e-3)
    try:
        params, _ = curve_fit(
            _model,
            capacities,
            ratios,
            p0=[floor_guess, amp_guess, 1.0],
            bounds=([0.0, 0.0, 0.05], [1.0, 1.0, 20.0]),
            maxfev=20_000,
        )
    except RuntimeError as exc:
        raise ValidationError(f"MRC fit did not converge: {exc}") from exc
    floor, amp, scale = (float(p) for p in params)
    return MissRatioCurve(
        floor, [(amp, scale)], direct_mapped_penalty=direct_mapped_penalty
    )


def fit_quality(mrc, measured):
    """Root-mean-square error of a fitted curve against measurements."""
    errors = [
        (mrc.value(mb) - ratio) ** 2
        for mb, ratio in measured.items()
        if mb > 0.5
    ]
    if not errors:
        raise ValidationError("no comparable points")
    return float(np.sqrt(np.mean(errors)))
