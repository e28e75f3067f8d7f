"""The analytical backend must be a transparent view of ``Machine``.

Every assertion here is exact (``==`` on floats): the backend makes the
same ``paper_pair_allocations`` + ``run_pair`` calls the pre-backend
policy code made, so there is nothing to be approximately equal about.
"""

import dataclasses

import pytest

from repro.backend import AnalyticalBackend, GroupSplit
from repro.core.bandwidth_qos import QosContract, apply_qos
from repro.core.policies import choose_biased_split, run_policy
from repro.runtime.harness import paper_pair_allocations
from repro.workloads import get_application

FG = "471.omnetpp"
BG = "canneal"


@pytest.fixture(scope="module")
def fg():
    return get_application(FG)


@pytest.fixture(scope="module")
def bg():
    return get_application(BG)


@pytest.fixture(scope="module")
def backend(machine):
    return AnalyticalBackend(machine)


@pytest.fixture(scope="module")
def spec(fg, bg):
    return AnalyticalBackend.group_spec([fg, bg])


def _run_pair(machine, fg, bg, fg_ways, bg_ways):
    """The pre-backend policy code's call: paper allocations + run_pair."""
    fg_alloc, bg_alloc = paper_pair_allocations(
        fg, bg, fg_ways, bg_ways, machine.config.llc_ways
    )
    return machine.run_pair(fg, bg, fg_alloc, bg_alloc)


class TestCapabilities:
    def test_reports_the_interval_engine(self, backend, machine):
        caps = backend.capabilities()
        assert caps.name == "analytical"
        assert caps.llc_ways == machine.config.llc_ways
        assert caps.fg_cost_unit == "s"
        assert caps.bg_rate_unit == "instr/s"
        assert caps.supports_dynamic

    def test_pair_spec_resolves_names(self):
        spec = AnalyticalBackend.group_spec(["fop", "batik"])
        assert spec.names == ("fop", "batik")
        assert [app.name for app in spec.tenants] == ["fop", "batik"]


class TestCoRunEquality:
    def test_co_run_is_exactly_run_pair(self, backend, machine, spec, fg, bg):
        m = backend.co_run(spec, GroupSplit.pair(9, 3, 12))
        pair = _run_pair(machine, fg, bg, 9, 3)
        assert m.fg_cost == pair.fg.runtime_s
        assert m.bg_rate == pair.bg_rate_ips
        assert m.raw.fg.runtime_s == pair.fg.runtime_s
        assert m.raw.fg.socket_energy_j == pair.fg.socket_energy_j

    def test_solo_uses_the_shared_solo_cache(self, backend, machine, fg):
        solo = backend.solo(fg)
        direct = machine.run_solo_cached(
            fg, threads=4, ways=machine.config.llc_ways
        )
        assert solo.cost == direct.runtime_s
        assert solo.name == fg.name


class TestPolicyEquality:
    """Policies through the backend equal direct ``run_pair`` calls at
    the split they chose, to the bit."""

    def test_shared(self, backend, machine, spec, fg, bg):
        outcome = run_policy(backend, spec, "shared")
        pair = _run_pair(machine, fg, bg, 12, 12)
        assert outcome.fg_runtime_s == pair.fg.runtime_s
        assert outcome.bg_rate_ips == pair.bg_rate_ips
        assert (outcome.fg_ways, outcome.bg_ways) == (12, 12)

    def test_fair(self, backend, machine, spec, fg, bg):
        outcome = run_policy(backend, spec, "fair")
        pair = _run_pair(machine, fg, bg, 6, 6)
        assert outcome.fg_runtime_s == pair.fg.runtime_s
        assert (outcome.fg_ways, outcome.bg_ways) == (6, 6)

    def test_biased(self, backend, machine, spec, fg, bg):
        outcome = run_policy(backend, spec, "biased")
        pick = choose_biased_split(backend.sweep(spec))
        assert pick[0] == outcome.fg_ways
        assert pick[1].fg_cost == outcome.fg_runtime_s
        pair = _run_pair(machine, fg, bg, pick[0], 12 - pick[0])
        assert outcome.fg_runtime_s == pair.fg.runtime_s
        assert outcome.bg_rate_ips == pair.bg_rate_ips

    def test_sweep_entries_are_measured_co_runs(self, backend, spec):
        sweep = backend.sweep(spec)
        assert [w for w, _ in sweep] == list(range(1, 12))
        assert all(m.raw is not None for _, m in sweep)
        assert all(m.fg_cost == m.raw.fg.runtime_s for _, m in sweep)

    def test_biased_choice_is_order_independent(self, backend, spec):
        sweep = backend.sweep(spec)
        pick = choose_biased_split(sweep)
        assert choose_biased_split(list(reversed(sweep))) == pick
        assert choose_biased_split(sweep[1::2] + sweep[::2]) == pick


class TestDynamic:
    def test_controller_trail_rides_on_the_measurement(self, backend, spec):
        outcome = run_policy(backend, spec, "dynamic")
        assert outcome.policy == "dynamic"
        extra = outcome.measurement.extra
        assert extra["controller"].fg_name == spec.names[0]
        assert extra["actions"] == extra["controller"].actions
        assert outcome.fg_ways == extra["controller"].fg_ways
        assert outcome.fg_ways + outcome.bg_ways == 12

    def test_self_pair_background_is_aliased(self, backend):
        fop = get_application("fop")
        outcome = run_policy(
            backend, AnalyticalBackend.group_spec([fop, fop]), "dynamic"
        )
        assert outcome.bg_name == "fop#2"


class TestSelfPairNames:
    """A self-pair's static outcome keeps the model name for the
    background while the dynamic one carries the engine's alias; both
    are what records have always held, so both are pinned."""

    @pytest.fixture(scope="class")
    def self_pair(self):
        return AnalyticalBackend.group_spec(["fop", "fop"])

    def test_tenant_set_aliases_the_background(self, self_pair):
        assert self_pair.names == ("fop", "fop#2")

    @pytest.mark.parametrize("policy", ["shared", "fair", "biased"])
    def test_static_self_pair_records_the_model_name(
        self, backend, self_pair, policy
    ):
        outcome = run_policy(backend, self_pair, policy)
        assert (outcome.fg_name, outcome.bg_name) == ("fop", "fop")

    def test_dynamic_self_pair_records_the_alias(self, backend, self_pair):
        outcome = run_policy(backend, self_pair, "dynamic")
        assert (outcome.fg_name, outcome.bg_name) == ("fop", "fop#2")


class TestGridMeters:
    """``co_run_grid`` runs read the machine's meters as ``co_run`` does."""

    def test_rapl_wraps_are_counted(self):
        """An 8x-length ``429.mcf`` deposits more than one 65,536 J
        RAPL wrap before its foreground finishes; the batch must count
        every wrap, as ``co_run`` does."""
        from repro.sim.engine import Machine

        mcf = get_application("429.mcf")
        mcf = dataclasses.replace(mcf, instructions=mcf.instructions * 8)
        pair = AnalyticalBackend.group_spec([mcf, get_application("fop")])
        split = GroupSplit.pair(6, 6, 12)
        (grid,) = AnalyticalBackend(Machine()).co_run_grid([(pair, split)])
        scalar = AnalyticalBackend(Machine()).co_run(pair, split)
        assert scalar.raw.socket_energy_j > 65536
        assert repr(grid) == repr(scalar)


class TestGridUnderBandwidthQos:
    """The grid solver models the config's plain DRAM and ring domains,
    so a machine with a QoS domain installed walks the scalar engine."""

    VICTIM = "462.libquantum"
    HOG = "stream_uncached"

    def test_grid_equals_scalar_under_qos(self):
        from repro.sim.engine import Machine

        backend = AnalyticalBackend(Machine())
        pair = AnalyticalBackend.group_spec([self.VICTIM, self.HOG])
        split = GroupSplit.fair(2, 12)
        plain = backend.co_run_grid([(pair, split)])[0]
        restore = apply_qos(
            backend.machine, [QosContract(self.VICTIM, 0.35, True)]
        )
        try:
            scalar = backend.co_run(pair, split)
            (grid,) = backend.co_run_grid([(pair, split)])
            sweep = dict(backend.sweep(pair))
        finally:
            restore()
        assert grid.fg_cost == scalar.fg_cost
        assert grid.bg_rate == scalar.bg_rate
        assert sweep[6].fg_cost == scalar.fg_cost
        assert scalar.fg_cost < plain.fg_cost  # the reservation helps
        # Restored: the grid applies again and reproduces the plain run.
        assert backend.co_run_grid([(pair, split)])[0].fg_cost == plain.fg_cost

    @pytest.mark.parametrize("qos", [False, True], ids=["stock", "qos"])
    def test_mixed_batch_equals_per_item_co_run(self, monkeypatch, qos):
        """One batch of every item kind — a pair-shaped split, its
        mirror (the ``run_group`` path), a 3-tenant group, a finite
        background and a timeline — equals per-item ``co_run`` calls
        bit for bit, on a stock machine (its two-app runs solved in
        grid rounds) and under a QoS contract (every interval solved
        per run)."""
        from repro.sim.engine import Machine
        from repro.sim.gridsolve import IntervalGrid

        rounds = []
        solve = IntervalGrid.solve
        monkeypatch.setattr(
            IntervalGrid, "solve",
            lambda grid, lanes: rounds.append(len(lanes)) or solve(grid, lanes),
        )

        def backend():
            backend = AnalyticalBackend(Machine())
            if qos:
                apply_qos(
                    backend.machine, [QosContract(self.VICTIM, 0.35, True)]
                )
            return backend

        pair = AnalyticalBackend.group_spec([self.VICTIM, self.HOG])
        phased = ["429.mcf", "canneal"]
        items = [
            (pair, GroupSplit.pair(4, 8, 12)),
            (pair, GroupSplit((0xFF0, 0x00F), 12)),
            (AnalyticalBackend.group_spec(["canneal", "fop", "batik"]),
             GroupSplit.fair(3, 12)),
            (AnalyticalBackend.group_spec(phased, bg_continuous=False),
             GroupSplit.pair(6, 6, 12)),
            (AnalyticalBackend.group_spec(phased, timeline=True),
             GroupSplit.pair(9, 3, 12)),
        ]
        # Enough copies of the batch for its rounds to be grid rounds.
        items = items * 2
        grid = backend().co_run_grid(items)
        reference = backend()
        assert [repr(m) for m in grid] == [
            repr(reference.co_run(tenants, split)) for tenants, split in items
        ]
        assert bool(rounds) is not qos
