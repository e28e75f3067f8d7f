import pytest

from repro.backend import AnalyticalBackend
from repro.core.policies import run_policy
from repro.util.errors import ValidationError
from repro.workloads import get_application

from .._pairs import pair_policy

FG = "471.omnetpp"  # cache-hungry foreground
BG = "canneal"  # capacity-stealing background


@pytest.fixture(scope="module")
def fg():
    return get_application(FG)


@pytest.fixture(scope="module")
def bg():
    return get_application(BG)


class TestStaticPolicies:
    def test_shared_uses_full_overlapping_masks(self, machine, fg, bg):
        outcome = pair_policy(machine, fg, bg, "shared")
        assert outcome.policy == "shared"
        assert outcome.fg_ways == outcome.bg_ways == 12

    def test_fair_splits_evenly(self, machine, fg, bg):
        outcome = pair_policy(machine, fg, bg, "fair")
        assert outcome.fg_ways == outcome.bg_ways == 6

    def test_sweep_covers_all_splits(self, machine, fg, bg):
        sweep = AnalyticalBackend(machine).sweep(
            AnalyticalBackend.group_spec([fg, bg])
        )
        assert [w for w, _ in sweep] == list(range(1, 12))

    def test_biased_beats_shared_for_sensitive_fg(self, machine, fg, bg):
        shared = pair_policy(machine, fg, bg, "shared")
        biased = pair_policy(machine, fg, bg, "biased")
        assert biased.fg_runtime_s <= shared.fg_runtime_s
        assert 1 <= biased.fg_ways <= 11
        assert biased.fg_ways + biased.bg_ways == 12

    def test_biased_is_optimal_over_its_sweep(self, machine, fg, bg):
        biased = pair_policy(machine, fg, bg, "biased")
        best = min(m.fg_cost for _, m in biased.sweep)
        assert biased.fg_runtime_s <= best * 1.006  # within tolerance

    def test_biased_prefers_background_among_ties(self, machine, fg, bg):
        biased = pair_policy(machine, fg, bg, "biased")
        cutoff = min(m.raw.fg.runtime_s for _, m in biased.sweep) * 1.005
        ties = [m.raw for _, m in biased.sweep if m.raw.fg.runtime_s <= cutoff]
        assert biased.bg_rate_ips == max(p.bg_rate_ips for p in ties)

    def test_dispatch_by_name(self, machine, fg, bg):
        backend = AnalyticalBackend(machine)
        pair = AnalyticalBackend.group_spec([fg, bg])
        assert run_policy(backend, pair, "fair").policy == "fair"
        with pytest.raises(ValidationError):
            run_policy(backend, pair, "oracle")

    def test_insensitive_fg_barely_needs_partitioning(self, machine):
        """Half the paper's apps don't need partitioning (Section 8)."""
        swaptions = get_application("swaptions")
        dedup = get_application("dedup")
        shared = pair_policy(machine, swaptions, dedup, "shared")
        solo = machine.run_solo(swaptions, threads=4)
        assert shared.fg_runtime_s / solo.runtime_s < 1.025
