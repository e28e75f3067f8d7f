"""Bit-equality of lockstep static co-runs against the scalar engine.

Every test compares ``run_pair_grid`` — ``Machine.pair_steps`` runs
driven in lockstep, each round's solves one vectorized
``IntervalGrid.solve`` — against per-cell ``Machine.run_pair`` with
``==`` on floats. The grid's contract is bit-identity, not closeness, at
*any* tuning (both occupancy schedules are vectorized). Memos are off
and every round is a grid round, so every interval of every cell is a
grid solve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.config import SandyBridgeConfig
from repro.perf import engine_counters as perf
from repro.runtime.harness import paper_pair_allocations
from repro.sim import engine as engine_mod
from repro.sim.engine import Machine
from repro.sim.gridsolve import IntervalGrid, run_pair_grid
from repro.sim.tuning import EngineTuning
from repro.util.errors import SchedulingError
from repro.workloads import get_application

TOL0 = EngineTuning(occupancy_tol=0.0)

PAIR_FIELDS = (
    "makespan_s",
    "socket_energy_j",
    "wall_energy_j",
    "pp0_energy_j",
    "bg_rate_ips",
)
RUN_FIELDS = (
    "name",
    "runtime_s",
    "instructions",
    "llc_misses",
    "llc_accesses",
    "socket_energy_j",
    "wall_energy_j",
    "avg_power_w",
    "pp0_energy_j",
)


@pytest.fixture(autouse=True)
def every_round_on_the_grid(monkeypatch):
    """Lane counts of the grid solves; rounds of any width are grid
    rounds."""
    monkeypatch.setattr(engine_mod, "_MIN_GRID_LANES", 1)
    rounds = []
    solve = IntervalGrid.solve

    def counted(self, requests):
        rounds.append(len(requests))
        return solve(self, requests)

    monkeypatch.setattr(IntervalGrid, "solve", counted)
    return rounds


def make_cells(pairs, splits, configs):
    """``(config, fg, bg, fg_allocation, bg_allocation)`` per cell."""
    cells = []
    for config in configs:
        for fg_name, bg_name in pairs:
            fg = get_application(fg_name)
            bg = get_application(bg_name)
            for fg_ways in splits:
                fg_alloc, bg_alloc = paper_pair_allocations(
                    fg, bg, fg_ways, 12 - fg_ways, 12
                )
                cells.append((config, fg, bg, fg_alloc, bg_alloc))
    return cells


def scalar_reference(cells, tuning):
    """Per-cell ``run_pair``, one memo-less machine per config."""
    machines = {}
    results = []
    for config, *pair in cells:
        machine = machines.get(id(config))
        if machine is None:
            machine = Machine(config=config, tuning=tuning, memoize=False)
            machines[id(config)] = machine
        results.append(machine.run_pair(*pair))
    return results


def grid(cells, tuning):
    """The cells in one lockstep batch, each on its own machine."""
    runs = []
    for config, *pair in cells:
        machine = Machine(config=config, tuning=tuning, memoize=False)
        runs.append((machine, machine.pair_steps(*pair)))
    return run_pair_grid(runs)


def assert_identical(scalar, grid):
    assert len(scalar) == len(grid)
    for expected, got in zip(scalar, grid):
        for field in PAIR_FIELDS:
            assert getattr(expected, field) == getattr(got, field), field
        for run_field in RUN_FIELDS:
            assert getattr(expected.fg, run_field) == getattr(
                got.fg, run_field
            ), f"fg.{run_field}"
            assert getattr(expected.bg, run_field) == getattr(
                got.bg, run_field
            ), f"bg.{run_field}"


class TestGridBitEquality:
    @pytest.mark.parametrize("tuning", [TOL0, EngineTuning()],
                             ids=["tol0", "default"])
    def test_lockstep_with_scalar_engine(self, tuning,
                                         every_round_on_the_grid):
        base = SandyBridgeConfig()
        cells = make_cells(
            [("canneal", "streamcluster"), ("x264", "blackscholes"),
             ("x264", "429.mcf"), ("429.mcf", "459.GemsFDTD")],
            splits=(1, 4, 6, 11),
            configs=(base, base.at_frequency(2.0e9)),
        )
        assert_identical(scalar_reference(cells, tuning), grid(cells, tuning))
        assert max(every_round_on_the_grid) == len(cells)

    def test_self_pair_aliases_background(self):
        cells = make_cells([("canneal", "canneal")], (6,), (None,))
        (result,) = grid(cells, TOL0)
        assert result.bg.name == "canneal#2"
        (scalar,) = scalar_reference(cells, TOL0)
        assert_identical([scalar], [result])

    def test_mixed_operating_points_in_one_grid(self):
        """Machines at the default and at another config in one batch."""
        base = SandyBridgeConfig()
        cells = make_cells(
            [("canneal", "streamcluster")], (3,), (None, base.at_frequency(2.7e9))
        )
        results = grid(cells, TOL0)
        assert results[0].makespan_s != results[1].makespan_s
        assert_identical(scalar_reference(cells, TOL0), results)

    def test_shared_masks_match_scalar(self):
        """Fully overlapping masks exercise the contested-region path."""
        fg = get_application("canneal")
        bg = get_application("streamcluster")
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg, 12, 12, 12)
        cells = [(None, fg, bg, fg_alloc, bg_alloc)]
        for tuning in (TOL0, EngineTuning()):
            assert_identical(
                scalar_reference(cells, tuning), grid(cells, tuning)
            )


class TestGridEdges:
    def test_empty_grid(self):
        assert run_pair_grid([]) == []

    def test_overlapping_cores_raise(self):
        fg = get_application("canneal")
        bg = get_application("streamcluster")
        fg_alloc, _ = paper_pair_allocations(fg, bg, 6, 6, 12)
        with pytest.raises(SchedulingError):
            grid([(None, fg, bg, fg_alloc, fg_alloc)], TOL0)

    def test_counters_count_cells_and_calls(self):
        cells = make_cells([("canneal", "streamcluster")], (2, 9), (None,))
        before = perf.engine_counters().snapshot()
        grid(cells, TOL0)
        after = perf.engine_counters().snapshot()
        assert after[perf.GRID_CALLS] - before.get(perf.GRID_CALLS, 0) == 1
        assert after[perf.GRID_CELLS] - before.get(perf.GRID_CELLS, 0) == 2


class TestGridHypothesis:
    """Random (split x operating point) grids stay in lockstep."""

    @settings(max_examples=10, deadline=None)
    @given(
        fg_ways=st.lists(st.integers(1, 11), min_size=1, max_size=3),
        freqs=st.lists(
            st.sampled_from([1.6e9, 2.0e9, 2.7e9, 3.4e9]),
            min_size=1,
            max_size=2,
        ),
        pair=st.sampled_from(
            [
                ("canneal", "streamcluster"),
                ("blackscholes", "canneal"),
                ("x264", "streamcluster"),
            ]
        ),
        tol=st.sampled_from([0.0, 1e-9, 1e-6]),
    )
    def test_random_grids_bit_identical(self, fg_ways, freqs, pair, tol):
        tuning = EngineTuning(occupancy_tol=tol)
        base = SandyBridgeConfig()
        cells = make_cells(
            [pair], fg_ways, [base.at_frequency(f) for f in freqs]
        )
        assert_identical(scalar_reference(cells, tuning), grid(cells, tuning))
