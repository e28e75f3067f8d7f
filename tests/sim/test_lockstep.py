"""Lockstep dynamic rosters: many analytical runs advanced together.

``run_lockstep`` drives each run's step generator to its next memo miss
and solves a round's misses together, through one
:class:`~repro.sim.gridsolve.IntervalGrid` solve for the lanes the grid
models and ``solve_interval`` for the rest. Every run must measure bit
for bit what its own ``AnalyticalBackend.dynamic`` call measures, with
the same memo counts, whichever way its intervals were solved.
"""

import pytest

from repro.backend import AnalyticalBackend
from repro.core.bandwidth_qos import QosContract, apply_qos
from repro.core.dynamic import DynamicPartitionController
from repro.sim import Machine
from repro.sim import engine as engine_mod
from repro.sim.engine import run_lockstep
from repro.sim.gridsolve import IntervalGrid

PAIRS = (
    ("canneal", "streamcluster"),
    ("459.GemsFDTD", "ferret"),
    ("fop", "fop"),
    ("429.mcf", "streamcluster"),
    ("x264", "429.mcf"),
    ("blackscholes", "canneal"),
)


class Audited(DynamicPartitionController):
    """A non-default controller: every tick is called, none skipped."""


def measured(m):
    """Every field of a dynamic measurement, floats spelled exactly."""
    return repr((m.names, m.split, m.costs, m.rates, m.raw,
                 m.extra["actions"]))


def grid_rounds(monkeypatch):
    """Lane counts of the IntervalGrid solves made."""
    rounds = []
    solve = IntervalGrid.solve

    def counted(self, requests):
        rounds.append(len(requests))
        return solve(self, requests)

    monkeypatch.setattr(IntervalGrid, "solve", counted)
    return rounds


def reference(cells):
    """``(measurement, memo hits, memo misses)`` per cell, one
    ``dynamic`` call each on a fresh backend."""
    out = []
    for make_backend, tenants, make_controller in cells:
        backend = make_backend()
        m = backend.dynamic(tenants, make_controller())
        out.append((measured(m), backend.machine.memo.hits,
                    backend.machine.memo.misses))
    return out


def lockstep(cells):
    backends = [make_backend() for make_backend, _, _ in cells]
    results = run_lockstep([
        (backend.machine, backend.dynamic_steps(tenants, make_controller()))
        for backend, (_, tenants, make_controller) in zip(backends, cells)
    ])
    return [
        (measured(m), b.machine.memo.hits, b.machine.memo.misses)
        for m, b in zip(results, backends)
    ]


def default_cell(fg, bg):
    return (AnalyticalBackend, AnalyticalBackend.group_spec([fg, bg]),
            lambda: None)


def qos_backend():
    backend = AnalyticalBackend(Machine())
    apply_qos(backend.machine, [QosContract("462.libquantum", 0.35, True)])
    return backend


class TestDynamicRoster:
    def test_equals_per_cell_dynamic(self, monkeypatch):
        rounds = grid_rounds(monkeypatch)
        tenant_sets = [AnalyticalBackend.group_spec(pair) for pair in PAIRS]
        rostered = AnalyticalBackend.dynamic_roster(
            [(AnalyticalBackend(), tenants) for tenants in tenant_sets]
        )
        assert rounds and max(rounds) == len(PAIRS)
        for tenants, m in zip(tenant_sets, rostered):
            assert measured(m) == measured(AnalyticalBackend().dynamic(tenants))

    def test_memo_counts_stay_per_cell(self):
        cells = [default_cell(*pair) for pair in PAIRS]
        assert lockstep(cells) == reference(cells)

    def test_small_rounds_solve_per_lane(self, monkeypatch):
        rounds = grid_rounds(monkeypatch)
        cells = [default_cell(*pair) for pair in PAIRS[:2]]
        assert lockstep(cells) == reference(cells)
        assert rounds == []  # below _MIN_GRID_LANES
        monkeypatch.setattr(engine_mod, "_MIN_GRID_LANES", 1)
        assert lockstep(cells) == reference(cells)
        assert rounds

    @pytest.mark.parametrize("tol", [None, 0.0])
    def test_mixed_roster_matches_reference(self, monkeypatch, tol):
        """Lanes the grid cannot model (a QoS domain, a group) solve
        per lane in the same rounds; noise, timelines, a prefetcher
        setting and a non-default controller ride the grid."""
        from repro.sim.tuning import DEFAULT_TUNING, EngineTuning

        tuning = DEFAULT_TUNING if tol is None else EngineTuning(
            occupancy_tol=tol
        )
        rounds = grid_rounds(monkeypatch)

        def plain():
            return AnalyticalBackend(Machine(tuning=tuning))

        def noisy():
            return AnalyticalBackend(
                Machine(tuning=tuning, mpki_noise_std=0.05, noise_seed=3)
            )

        group = AnalyticalBackend.group_spec(["canneal", "fop", "batik"])
        cells = [
            (plain, AnalyticalBackend.group_spec(pair), lambda: None)
            for pair in PAIRS[:4]
        ] + [
            (noisy, AnalyticalBackend.group_spec(PAIRS[3]), lambda: None),
            (plain, AnalyticalBackend.group_spec(PAIRS[4], timeline=True),
             lambda: None),
            (plain, AnalyticalBackend.group_spec(
                PAIRS[5], prefetchers_on=False), lambda: None),
            (plain, AnalyticalBackend.group_spec(PAIRS[0]),
             lambda: Audited("canneal", "streamcluster")),
            (qos_backend,
             AnalyticalBackend.group_spec(["462.libquantum",
                                           "stream_uncached"]),
             lambda: None),
            (plain, group, lambda: None),
        ]
        assert lockstep(cells) == reference(cells)
        assert rounds and max(rounds) >= 6
