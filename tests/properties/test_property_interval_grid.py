"""The interval-level grid entry equals ``solve_interval`` bit for bit.

:class:`~repro.sim.gridsolve.IntervalGrid` solves many two-app lanes in
one vectorized call and is what the lockstep dynamic roster solves its
memo misses with, so every solution it returns must ``repr`` exactly as
the scalar solve's does: over any pair of registry apps, any phase, any
pair of way masks (overlapping or not), prefetchers on or off, both
occupancy schedules, and masks and progress that move between solves.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.llc import WayMask
from repro.runtime.harness import paper_pair_allocations
from repro.sim import Machine
from repro.sim.gridsolve import IntervalGrid
from repro.sim.interval import AppState, solve_interval
from repro.sim.tuning import DEFAULT_TUNING, EngineTuning
from repro.workloads import get_application
from repro.workloads.registry import all_application_names

NAMES = sorted(all_application_names())
TUNINGS = (DEFAULT_TUNING, EngineTuning(occupancy_tol=0.0))


def scalar(machine, states):
    return solve_interval(
        states,
        machine.config,
        machine.memory_system,
        machine.power_model,
        tuning=machine.tuning,
    )


@st.composite
def lane_state(draw):
    """``(fg, bg, prefetchers_on)`` of one lane, masks and progress set."""
    fg = get_application(draw(st.sampled_from(NAMES)))
    bg = get_application(draw(st.sampled_from(NAMES)))
    if fg.name == bg.name:
        bg = dataclasses.replace(bg, name=f"{bg.name}#2", phases=bg.phases)
    fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
    prefetchers_on = draw(st.booleans())
    states = [
        AppState(app=app, allocation=alloc, prefetchers_on=prefetchers_on)
        for app, alloc in ((fg, fg_alloc), (bg, bg_alloc))
    ]
    move(draw, states)
    return states


def move(draw, states):
    """Give each state a new random mask and progress."""
    for s in states:
        bits = draw(st.integers(1, (1 << 12) - 1))
        s.allocation = s.allocation.with_mask(WayMask.from_bits(bits))
        s.progress = draw(st.floats(0.0, 0.999))


class TestIntervalGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        lanes=st.lists(lane_state(), min_size=1, max_size=4),
        tuning=st.sampled_from(TUNINGS),
        data=st.data(),
    )
    def test_equals_solve_interval_by_repr(self, lanes, tuning, data):
        machines = [Machine(tuning=tuning) for _ in lanes]
        grid = IntervalGrid(list(zip(machines, lanes)), tuning)
        for solution, machine, states in zip(
            grid.solve(list(range(len(lanes)))), machines, lanes
        ):
            assert repr(solution) == repr(scalar(machine, states))
        # Masks and phases move between solves; a round may ask for a
        # subset of the lanes.
        for states in lanes:
            move(data.draw, states)
        subset = data.draw(
            st.lists(st.sampled_from(range(len(lanes))), min_size=1,
                     unique=True)
        )
        solved = grid.solve(subset)
        for solution, i in zip(solved, subset):
            assert repr(solution) == repr(scalar(machines[i], lanes[i]))

    def test_covers_only_the_lane_it_was_built_from(self):
        fg, bg = get_application("canneal"), get_application("fop")
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
        states = [AppState(app=fg, allocation=fg_alloc),
                  AppState(app=bg, allocation=bg_alloc)]
        machine = Machine()
        assert IntervalGrid.accepts(machine, states, machine.tuning)
        grid = IntervalGrid([(machine, states)], machine.tuning)
        assert grid.covers(0, machine, states)
        assert not grid.covers(0, machine, list(reversed(states)))
        assert not grid.covers(0, Machine(), states)  # another config
        states[1].prefetchers_on = False
        assert not grid.covers(0, machine, states)
        assert not IntervalGrid.accepts(machine, states, machine.tuning)
        assert not IntervalGrid.accepts(machine, states[:1], machine.tuning)
