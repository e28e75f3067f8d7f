"""Joint (operating point x way split) min-energy search under QoS slack.

The search's contract is equality with the obvious-but-slow policy:
exhaustively measure every (config, split) cell on a scalar backend,
apply the same feasibility test, pick minimum energy with the same
tie-break. The implementation gets its cells from one vectorized
``co_run_grid`` call and memoizes them, so these tests double as an
end-to-end check of the per-cell operating-point plumbing.
"""

import pytest

from repro.backend import AnalyticalBackend, GroupSplit, TraceBackend
from repro.core import EnergyQosSearch
from repro.cpu.config import SandyBridgeConfig
from repro.perf import engine_counters as ec
from repro.sim.engine import Machine
from repro.util.errors import ValidationError


def exhaustive_reference(fg, bg, configs, fg_slack, bg_slack=None):
    """The scalar ground truth: one Machine per config, every split."""
    backend = AnalyticalBackend()
    spec = AnalyticalBackend.group_spec([fg, bg])
    fg_app, bg_app = spec.tenants
    llc_ways = backend.capabilities().llc_ways
    fg_budget = backend.solo(fg_app).cost * (1.0 + fg_slack)
    bg_floor = None
    if bg_slack is not None:
        shared = backend.co_run(spec, GroupSplit.shared(2, llc_ways))
        bg_floor = shared.bg_rate * (1.0 - bg_slack)

    best = None
    fallback = None
    for ci, config in enumerate(configs):
        machine = Machine(config=config, memoize=False)
        for fg_ways in range(1, llc_ways):
            from repro.runtime.harness import paper_pair_allocations

            fg_alloc, bg_alloc = paper_pair_allocations(
                fg_app, bg_app, fg_ways, llc_ways - fg_ways, llc_ways
            )
            pair = machine.run_pair(fg_app, bg_app, fg_alloc, bg_alloc)
            fg_cost = pair.fg.runtime_s
            bg_rate = pair.bg_rate_ips
            energy = pair.socket_energy_j
            feasible = fg_cost <= fg_budget and (
                bg_floor is None or bg_rate >= bg_floor
            )
            entry = (ci, fg_ways, fg_cost, bg_rate, energy)
            if feasible and (best is None or energy < best[4]):
                best = entry
            if fallback is None or fg_cost < fallback[2]:
                fallback = entry
    return (best if best is not None else fallback), best is not None


class TestSearchEqualsExhaustive:
    def check(self, configs, fg_slack, bg_slack):
        search = EnergyQosSearch(
            configs=configs, fg_slack=fg_slack, bg_slack=bg_slack
        )
        pick = search.search("canneal", "streamcluster")
        (ci, fg_ways, fg_cost, bg_rate, energy), feasible = (
            exhaustive_reference(
                "canneal", "streamcluster", configs, fg_slack, bg_slack
            )
        )
        assert pick.config_index == ci
        assert pick.fg_ways == fg_ways
        assert pick.bg_ways == 12 - fg_ways
        assert pick.fg_cost == fg_cost
        assert pick.bg_rate == bg_rate
        assert pick.energy_j == energy
        assert pick.feasible is feasible
        return pick

    def test_single_nominal_config(self):
        pick = self.check((None,), fg_slack=0.3, bg_slack=None)
        assert pick.cells_searched == 11
        assert pick.bg_floor is None

    def test_multi_config_with_bg_floor(self):
        base = SandyBridgeConfig()
        configs = (None, base.at_frequency(2.0e9), base.at_frequency(2.7e9))
        pick = self.check(configs, fg_slack=0.3, bg_slack=0.5)
        assert pick.cells_searched == 33
        assert pick.bg_floor is not None

    def test_zero_slack_degrades_to_most_responsive(self):
        """An unmeetable contract picks min fg_cost, flagged infeasible.

        fg_slack=0 demands co-run cost <= solo cost, impossible under
        contention, so the pick must be the most responsive cell rather
        than the cheapest one.
        """
        pick = self.check((None,), fg_slack=0.0, bg_slack=None)
        assert pick.feasible is False
        assert pick.fg_cost > pick.fg_budget

    def test_loose_slack_is_feasible_and_budgeted(self):
        pick = self.check((None,), fg_slack=5.0, bg_slack=None)
        assert pick.feasible is True
        assert pick.fg_cost <= pick.fg_budget


class TestBatchingAndMemo:
    def test_one_grid_call_per_search(self):
        base = SandyBridgeConfig()
        search = EnergyQosSearch(
            configs=(None, base.at_frequency(2.0e9)), fg_slack=0.3
        )
        before = ec.engine_counters().snapshot()
        search.search("canneal", "streamcluster")
        delta = ec.engine_counters().delta(before)
        assert delta[ec.GRID_CALLS] == 1
        assert delta[ec.GRID_CELLS] == 22

    def test_repeat_search_resolves_nothing(self):
        search = EnergyQosSearch(fg_slack=0.3)
        first = search.search("canneal", "streamcluster")
        before = ec.engine_counters().snapshot()
        again = search.search("canneal", "streamcluster")
        delta = ec.engine_counters().delta(before)
        assert delta[ec.GRID_CALLS] == 0
        assert delta[ec.GRID_CELLS] == 0
        assert again == first

    def test_slack_change_reuses_the_memo(self):
        search = EnergyQosSearch(fg_slack=0.0)
        infeasible = search.search("canneal", "streamcluster")
        assert infeasible.feasible is False
        search.fg_slack = 5.0
        before = ec.engine_counters().snapshot()
        feasible = search.search("canneal", "streamcluster")
        assert ec.engine_counters().delta(before)[ec.GRID_CELLS] == 0
        assert feasible.feasible is True


class TestValidation:
    def test_trace_backend_has_no_energy(self):
        with pytest.raises(ValidationError, match="supports_energy"):
            EnergyQosSearch(backend=TraceBackend())

    def test_negative_fg_slack_rejected(self):
        with pytest.raises(ValidationError, match="fg_slack"):
            EnergyQosSearch(fg_slack=-0.1)

    def test_bg_slack_bounds(self):
        with pytest.raises(ValidationError, match="bg_slack"):
            EnergyQosSearch(bg_slack=1.5)
        with pytest.raises(ValidationError, match="bg_slack"):
            EnergyQosSearch(bg_slack=-0.5)
