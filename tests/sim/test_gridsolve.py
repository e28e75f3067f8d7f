"""Bit-equality of the vectorized grid solver against the scalar engine.

Every test compares ``run_pair_grid`` against per-cell
``Machine.run_pair`` with ``==`` on floats — the grid's contract is
bit-identity, not closeness, at *any* tuning (both occupancy schedules
are vectorized).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.config import SandyBridgeConfig
from repro.perf import engine_counters as perf
from repro.runtime.harness import paper_pair_allocations
from repro.sim.engine import Machine
from repro.sim.gridsolve import GridCell, run_pair_grid
from repro.sim.tuning import EngineTuning
from repro.util.errors import SchedulingError, ValidationError
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


def make_cells(pairs, splits, configs):
    cells = []
    for config in configs:
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


def scalar_reference(cells, tuning):
    machines = {}
    results = []
    for cell in cells:
        key = id(cell.config)
        machine = machines.get(key)
        if machine is None:
            machine = Machine(
                config=cell.config, tuning=tuning, memoize=False
            )
            machines[key] = machine
        results.append(
            machine.run_pair(
                cell.fg, cell.bg, cell.fg_allocation, cell.bg_allocation
            )
        )
    return results


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
    def test_lockstep_with_scalar_engine(self, tuning):
        base = SandyBridgeConfig()
        cells = make_cells(
            [("canneal", "streamcluster"), ("x264", "blackscholes"),
             ("x264", "429.mcf"), ("429.mcf", "459.GemsFDTD")],
            splits=(1, 4, 6, 11),
            configs=(base, base.at_frequency(2.0e9)),
        )
        assert_identical(
            scalar_reference(cells, tuning),
            run_pair_grid(cells, tuning=tuning),
        )

    def test_self_pair_aliases_background(self):
        cells = make_cells([("canneal", "canneal")], (6,), (None,))
        (grid,) = run_pair_grid(cells, tuning=TOL0)
        assert grid.bg.name == "canneal#2"
        (scalar,) = scalar_reference(cells, TOL0)
        assert_identical([scalar], [grid])

    def test_mixed_operating_points_in_one_grid(self):
        """Cells with config=None and explicit configs coexist."""
        base = SandyBridgeConfig()
        cells = make_cells(
            [("canneal", "streamcluster")], (3,), (None, base.at_frequency(2.7e9))
        )
        results = run_pair_grid(cells, tuning=TOL0)
        assert results[0].makespan_s != results[1].makespan_s
        assert_identical(scalar_reference(cells, TOL0), results)

    def test_shared_masks_match_scalar(self):
        """Fully overlapping masks exercise the contested-region path."""
        fg = get_application("canneal")
        bg = get_application("streamcluster")
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg, 12, 12, 12)
        cells = [GridCell(fg, bg, fg_alloc, bg_alloc)]
        for tuning in (TOL0, EngineTuning()):
            assert_identical(
                scalar_reference(cells, tuning),
                run_pair_grid(cells, tuning=tuning),
            )


class TestGridEdges:
    def test_empty_grid(self):
        assert run_pair_grid([]) == []

    def test_overlapping_cores_raise(self):
        fg = get_application("canneal")
        bg = get_application("streamcluster")
        fg_alloc, _ = paper_pair_allocations(fg, bg, 6, 6, 12)
        with pytest.raises(SchedulingError):
            run_pair_grid([GridCell(fg, bg, fg_alloc, fg_alloc)])

    def test_counters_count_cells_and_calls(self):
        cells = make_cells([("canneal", "streamcluster")], (2, 9), (None,))
        before = perf.engine_counters().snapshot()
        run_pair_grid(cells, tuning=TOL0)
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
        assert_identical(
            scalar_reference(cells, tuning),
            run_pair_grid(cells, tuning=tuning),
        )
