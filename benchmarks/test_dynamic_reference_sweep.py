"""Every ordered pair of distinct representatives (C1-C6) under the
dynamic controller, against the per-tick reference.

``Machine(memoize=False)`` solves the interval and calls the controller
on every 100 ms tick. A memoized machine holds solutions and runs held,
quiet controller ticks without calling back. Both must measure and
decide the same, bit for bit, on every pair.
"""

import dataclasses
import itertools

from conftest import run_once

from repro.backend import AnalyticalBackend
from repro.sim import Machine
from repro.workloads.registry import REPRESENTATIVES


def _sweep(memoize):
    """``{(fg, bg): exact repr of the PairResult and the actions}``."""
    backend = AnalyticalBackend(Machine(memoize=memoize))
    out = {}
    for fg, bg in itertools.permutations(REPRESENTATIVES.values(), 2):
        measured = backend.dynamic(AnalyticalBackend.group_spec([fg, bg]))
        actions = measured.extra["actions"]
        out[(fg, bg)] = (
            repr((dataclasses.astuple(measured.raw), actions)), len(actions)
        )
    return out


def test_dynamic_pairs_match_the_per_tick_reference(benchmark):
    reference = _sweep(memoize=False)
    fast = run_once(benchmark, lambda: _sweep(memoize=True))
    assert len(fast) == 30
    moved = sorted(pair for pair in reference if fast[pair] != reference[pair])
    actions = sum(count for _, count in fast.values())
    print(
        f"\n{len(fast)} dynamic pairs, {actions} controller actions, "
        f"{len(moved)} differ from the per-tick reference"
    )
    assert not moved, moved
