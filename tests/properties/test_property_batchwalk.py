"""Property: the batched kernel is per-cell sequential replay, for any
roster shape — random cell counts, domain counts, skewed per-cell
footprints/budgets (so cells finish far out of order), optional way
masks — and for any thread count, with native on or off."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.llc import WayMask
from repro.cache.profile import LLC_NUM_WAYS
from repro.sim.trace_engine import (
    RosterCell,
    TraceWorkload,
    _run_roster_sequential,
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


_MAKERS = (
    lambda n, t: ZipfTrace(n, 256 * KB, alpha=0.9, tid=t, seed=11),
    lambda n, t: StreamingTrace(n, 512 * KB, tid=t),
    lambda n, t: PointerChaseTrace(n, 128 * KB, tid=t, seed=5),
    lambda n, t: StreamingTrace(n, 256 * KB, tid=t),
)


def _make_cell(lengths, thinks, repeats, stop, fg_ways):
    workloads = [
        TraceWorkload(
            f"dom{i}",
            lambda m=_MAKERS[i], n=n, t=_TIDS[i]: m(n, t),
            tid=_TIDS[i],
            think_cycles=think,
            repeat=repeat,
        )
        for i, (n, think, repeat) in enumerate(zip(lengths, thinks, repeats))
    ]
    masks = None
    if fg_ways is not None and len(workloads) == 2:
        cores = [w.tid // 2 for w in workloads]
        masks = {
            cores[0]: WayMask.contiguous(fg_ways, 0),
            cores[1]: WayMask.contiguous(
                LLC_NUM_WAYS - fg_ways, fg_ways
            ),
        }
    return RosterCell(
        workloads=workloads, masks=masks, total_accesses=stop
    )


def _draw_cell(data, c):
    domains = data.draw(
        st.integers(min_value=1, max_value=3), label=f"domains{c}"
    )
    # Deliberately skewed: one cell can be 50x another, so the threaded
    # kernel retires cells far out of submission order.
    lengths = data.draw(
        st.lists(
            st.integers(min_value=40, max_value=2_000),
            min_size=domains,
            max_size=domains,
        ),
        label=f"lengths{c}",
    )
    thinks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=domains,
            max_size=domains,
        ),
        label=f"thinks{c}",
    )
    repeats = data.draw(
        st.lists(st.booleans(), min_size=domains, max_size=domains),
        label=f"repeats{c}",
    )
    stop = data.draw(
        st.integers(min_value=50, max_value=3 * sum(lengths)),
        label=f"stop{c}",
    )
    fg_ways = data.draw(
        st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=LLC_NUM_WAYS - 1),
        ),
        label=f"fg_ways{c}",
    )
    return _make_cell(lengths, thinks, repeats, stop, fg_ways)


class TestBatchwalkProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    def test_batched_matches_sequential_for_any_roster(self, cells, data):
        roster = [_draw_cell(data, c) for c in range(cells)]
        reference = _run_roster_sequential(roster)
        for threads in (1, 2, len(roster)):
            assert run_packed_roster(roster, threads=threads) == reference
        assert without_native(
            lambda: run_packed_roster(roster)
        ) == reference

    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.integers(min_value=3, max_value=6),
        data=st.data(),
    )
    def test_one_worker_bank_matches_sequential(self, cells, data):
        """One kernel thread: every cell after the first reuses the one
        worker bank, reset to the template where the previous cell
        wrote it."""
        roster = [_draw_cell(data, c) for c in range(cells)]
        assert run_packed_roster(
            roster, threads=1
        ) == _run_roster_sequential(roster)
