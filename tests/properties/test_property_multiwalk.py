"""Property: every packed co-run of 1-4 domains replays exactly like
``TraceEngine.run``, through the pure-Python epoch driver
(``TraceEngine.run_packed``) and as a one-cell roster, native and
``REPRO_NATIVE=0`` — random per-domain lengths, think times, and repeat
flags, including the all-retired early-exit and constant-tie cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.llc import WayMask
from repro.sim.trace_engine import (
    RosterCell,
    TraceEngine,
    TraceWorkload,
    run_packed_roster,
)
from repro.workloads.trace import (
    PointerChaseTrace,
    StreamingTrace,
    ZipfTrace,
)

from .._native import without_native

KB = 1024
_TIDS = (0, 4, 2, 6)


def _make_workloads(lengths, thinks, repeats):
    makers = (
        lambda n, t: ZipfTrace(n, 256 * KB, alpha=0.9, tid=t, seed=11),
        lambda n, t: StreamingTrace(n, 512 * KB, tid=t),
        lambda n, t: PointerChaseTrace(n, 128 * KB, tid=t, seed=5),
        lambda n, t: StreamingTrace(n, 256 * KB, tid=t),
    )
    return [
        TraceWorkload(
            f"dom{i}",
            lambda m=makers[i], n=n, t=_TIDS[i]: m(n, t),
            tid=_TIDS[i],
            think_cycles=think,
            repeat=repeat,
        )
        for i, (n, think, repeat) in enumerate(zip(lengths, thinks, repeats))
    ]


def _masks(domains):
    """``{core: WayMask}`` splitting the LLC among ``domains`` domains."""
    ways_split = {
        1: (12,), 2: (9, 3), 3: (6, 3, 3), 4: (6, 2, 2, 2),
    }[domains]
    masks = {}
    start = 0
    for i, ways in enumerate(ways_split):
        masks[_TIDS[i] // 2] = WayMask.contiguous(ways, start)
        start += ways
    return masks


def _roster(workloads, total):
    """The co-run as a one-cell ``run_packed_roster``."""
    cell = RosterCell(
        workloads, masks=_masks(len(workloads)), total_accesses=total
    )
    return run_packed_roster([cell])[0]


def _run(workloads, packed, total):
    """``run_packed`` when ``packed``, else ``run``."""
    engine = TraceEngine(prefetchers_on=False)
    for core, mask in _masks(len(workloads)).items():
        engine.hierarchy.set_way_mask(core, mask)
    run = engine.run_packed if packed else engine.run
    stats = run(workloads, total_accesses=total)
    hierarchy = engine.hierarchy
    levels = list(hierarchy.l1) + list(hierarchy.l2) + [hierarchy.llc.storage]
    return (
        stats,
        [sorted(level.stats.snapshot().items()) for level in levels],
        hierarchy.llc.storage.occupancy_by_way(),
        sorted(hierarchy.llc.storage.resident_lines()),
    )


class TestMultiwalkProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        domains=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_native_python_and_run_agree(self, domains, data):
        lengths = data.draw(
            st.lists(
                st.integers(min_value=40, max_value=400),
                min_size=domains,
                max_size=domains,
            )
        )
        thinks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=9),
                min_size=domains,
                max_size=domains,
            )
        )
        repeats = data.draw(
            st.lists(st.booleans(), min_size=domains, max_size=domains)
        )
        total = data.draw(st.integers(min_value=50, max_value=3 * sum(lengths)))

        workloads = _make_workloads(lengths, thinks, repeats)
        packed_sig = _run(workloads, True, total)
        run_sig = _run(workloads, False, total)
        assert packed_sig == run_sig
        assert _roster(workloads, total) == run_sig[0]
        python = without_native(lambda: _roster(workloads, total))
        assert python == run_sig[0]
