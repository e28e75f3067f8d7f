"""Utility-Based Cache Partitioning (Qureshi & Patt, MICRO 2006).

The paper's related work [29] and the classic simulation-era baseline its
measurements are contrasted against. UCP assigns ways to applications by
greedy marginal utility over their miss-rate curves: each step gives the
next way to whoever saves the most misses with it (the "lookahead"
variant handles non-convex curves by evaluating blocks of ways).

Here it serves two purposes:

- a *baseline policy* (`run_ucp`) comparable against the paper's biased
  search in the ablation benchmarks, and
- the utility framework for partitioning among *multiple* latency-
  sensitive applications (the paper's future work, Section 6.3).
"""

from dataclasses import dataclass

from repro.cache.llc import WayMask
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class UcpAllocation:
    """The outcome of a UCP division of the cache."""

    ways_by_app: dict  # name -> way count
    masks_by_app: dict  # name -> WayMask (contiguous packing)
    total_utility: float


def miss_curve(app, way_mb, num_ways, threads=1, phase=None):
    """Misses-per-kilo-instruction at each way count, from the model.

    On the paper's prototype this would come from UMON shadow tags; our
    application models expose the same information directly.
    """
    return {
        ways: app.mpki(ways * way_mb, ways=ways, phase=phase, threads=threads)
        for ways in range(1, num_ways + 1)
    }


def _marginal_utility(curve, have, take):
    """Miss savings per way of growing an allocation from ``have`` by
    ``take`` ways (the lookahead step)."""
    return (curve[have] - curve[have + take]) / take if take > 0 else 0.0


def partition_ucp(curves, num_ways=12, min_ways=1, weights=None):
    """Divide ``num_ways`` among applications by greedy lookahead UCP.

    Args:
        curves: {name: {ways: mpki}} — each must cover 1..num_ways.
        min_ways: floor per application (1 in the original algorithm).
        weights: optional per-app importance multipliers on utility
            (all 1.0 = the original algorithm; a latency-sensitive app
            can be weighted up, which is how the future-work multi-
            foreground scenario expresses priorities).

    Returns:
        UcpAllocation with contiguous, disjoint masks.
    """
    if not curves:
        raise ValidationError("UCP needs at least one application")
    names = list(curves)
    for name in names:
        missing = [w for w in range(1, num_ways + 1) if w not in curves[name]]
        if missing:
            raise ValidationError(f"{name}: miss curve missing ways {missing}")
    if min_ways * len(names) > num_ways:
        raise ValidationError(
            f"cannot give {len(names)} apps {min_ways} ways each out of {num_ways}"
        )
    weights = weights or {}

    allocation = {name: min_ways for name in names}
    remaining = num_ways - min_ways * len(names)
    total_utility = 0.0
    while remaining > 0:
        best = None
        for name in names:
            have = allocation[name]
            for take in range(1, remaining + 1):
                if have + take > num_ways:
                    break
                utility = _marginal_utility(curves[name], have, take) * weights.get(
                    name, 1.0
                )
                if best is None or utility > best[0] + 1e-15:
                    best = (utility, name, take)
        utility, name, take = best
        if utility <= 0:
            # Nobody benefits: split the leftovers round-robin, as the
            # hardware proposal does with its spare ways.
            for i in range(remaining):
                allocation[names[i % len(names)]] += 1
            remaining = 0
            break
        allocation[name] += take
        remaining -= take
        total_utility += utility * take

    masks = {}
    offset = 0
    for name in names:
        masks[name] = WayMask.contiguous(allocation[name], offset, num_ways)
        offset += allocation[name]
    return UcpAllocation(
        ways_by_app=allocation, masks_by_app=masks, total_utility=total_utility
    )


def run_ucp(machine, fg, bg, threads=4, **kwargs):
    """Run a pair under a UCP-chosen static partition.

    The baseline policy: unlike the paper's biased search (which
    optimizes foreground protection subject to background throughput),
    UCP minimizes *total* misses — so it will happily trade foreground
    slowdown for overall throughput, which is exactly the contrast the
    paper draws with QoS-aware partitioning.
    """
    from repro.backend import AnalyticalBackend, GroupSplit
    from repro.core.policies import PolicyOutcome
    from repro.runtime.harness import _threads_for

    cfg = machine.config
    fg_threads = _threads_for(fg, threads)
    bg_threads = _threads_for(bg, threads)
    curves = {
        "fg": miss_curve(fg, cfg.way_mb, cfg.llc_ways, threads=fg_threads),
        "bg": miss_curve(bg, cfg.way_mb, cfg.llc_ways, threads=bg_threads),
    }
    # Weight each app's utility by its access rate so "misses saved" is
    # in comparable units (misses/s), as the hardware's UMONs measure.
    division = partition_ucp(curves, num_ways=cfg.llc_ways)
    fg_ways = division.ways_by_app["fg"]
    bg_ways = division.ways_by_app["bg"]
    measurement = AnalyticalBackend(machine).co_run(
        AnalyticalBackend.group_spec([fg, bg], **kwargs),
        GroupSplit.pair(fg_ways, bg_ways, cfg.llc_ways),
    )
    return PolicyOutcome("ucp", measurement)
