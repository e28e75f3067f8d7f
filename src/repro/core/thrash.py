"""Thrash-containment partitioning (Xie & Loh), related work [38].

"Xie and Loh further use the LLC measurements to partition the cache
according to their classification of applications as thrashing or
non-thrashing." A *thrashing* application touches far more data than any
cache share it could hold, so giving it capacity only destroys its
neighbours: the policy confines all thrashers to one small shared
partition and leaves the rest of the cache to applications that can use
it.

This is the second baseline (after UCP) the paper's measured results are
implicitly contrasted with; `run_thrash_containment` makes the contrast
explicit in the ablation benches.
"""

from dataclasses import dataclass

from repro.cache.llc import WayMask
from repro.util.errors import ValidationError

# An app is thrashing when even the full LLC leaves most of its accesses
# missing (its reuse distances exceed the cache).
THRASH_MISS_RATIO = 0.5
# ...and it is hammering the cache hard enough to matter.
THRASH_MIN_APKI = 8.0

# The containment partition's size (Xie & Loh use a small fixed slice).
CONTAINMENT_WAYS = 1


def is_thrashing(app, capacity_mb=6.0):
    """Classify one application from its model (UMON-equivalent data)."""
    return (
        app.miss_ratio(capacity_mb) >= THRASH_MISS_RATIO
        and app.llc_apki >= THRASH_MIN_APKI
    )


@dataclass(frozen=True)
class ThrashPlan:
    """The policy's division of the cache."""

    thrashing: tuple  # names confined to the containment partition
    containment_mask: object  # WayMask (None if nobody thrashes)
    main_mask: object  # WayMask for everyone else

    def mask_for(self, app):
        if app.name in self.thrashing:
            return self.containment_mask
        return self.main_mask


def plan_containment(apps, llc_ways=12, containment_ways=CONTAINMENT_WAYS):
    """Build the thrash-containment plan for a set of applications."""
    if not apps:
        raise ValidationError("need at least one application")
    if not 1 <= containment_ways < llc_ways:
        raise ValidationError("containment partition must leave main ways")
    thrashing = tuple(sorted(a.name for a in apps if is_thrashing(a)))
    if not thrashing:
        full = WayMask.full(llc_ways)
        return ThrashPlan(thrashing=(), containment_mask=None, main_mask=full)
    containment = WayMask.contiguous(
        containment_ways, llc_ways - containment_ways, llc_ways
    )
    main = WayMask.contiguous(llc_ways - containment_ways, 0, llc_ways)
    return ThrashPlan(
        thrashing=thrashing, containment_mask=containment, main_mask=main
    )


def run_thrash_containment(machine, fg, bg, **kwargs):
    """Run a pair under the thrash-containment policy."""
    from repro.backend import GroupSplit
    from repro.backend.analytical import pair_measurement
    from repro.core.policies import PolicyOutcome
    from repro.runtime.harness import paper_pair_allocations

    plan = plan_containment([fg, bg], llc_ways=machine.config.llc_ways)
    fg_alloc, bg_alloc = paper_pair_allocations(
        fg, bg, llc_ways=machine.config.llc_ways
    )
    fg_mask = plan.mask_for(fg)
    bg_mask = plan.mask_for(bg)
    pair = machine.run_pair(
        fg,
        bg,
        fg_alloc.with_mask(fg_mask),
        bg_alloc.with_mask(bg_mask),
        **kwargs,
    )
    split = GroupSplit(
        (fg_mask.bits, bg_mask.bits), machine.config.llc_ways
    )
    return PolicyOutcome(
        "thrash-containment",
        pair_measurement((fg.name, bg.name), split, pair),
    )
