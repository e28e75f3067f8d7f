"""The backend protocol: pair splits, default hooks, and the biased rule."""

import itertools

import pytest

from repro.backend import (
    BACKEND_NAMES,
    AnalyticalBackend,
    BackendCapabilities,
    GroupMeasurement,
    GroupSplit,
    SimBackend,
    TenantSet,
    TraceBackend,
    get_backend,
)
from repro.core.policies import choose_biased_split, policy_biased, run_policy
from repro.util.errors import ValidationError


def _overlaps(split):
    fg_bits, bg_bits = split.mask_bits
    return bool(fg_bits & bg_bits)


class TestPairSplits:
    """The 2-tenant shapes: the foreground's ways from way 0 up, the
    background's from the top down."""

    def test_shared_overlaps_the_whole_cache(self):
        split = GroupSplit.shared(2, 12)
        assert split.way_counts == (12, 12)
        assert split.pair_ways() == (12, 12)
        assert _overlaps(split)

    def test_fair_is_an_even_disjoint_split(self):
        split = GroupSplit.fair(2, 12)
        assert split.mask_bits == (0x03F, 0xFC0)
        assert not _overlaps(split)

    def test_fair_gives_odd_leftover_to_the_background(self):
        assert GroupSplit.fair(2, 11) == GroupSplit.pair(5, 6, 11)
        assert GroupSplit.fair(2, 11).mask_bits == (0x01F, 0x7E0)

    def test_disjoint_partitions_exactly(self):
        split = GroupSplit.disjoint(3, 12)
        assert split.mask_bits == (0x007, 0xFF8)
        assert not _overlaps(split)

    def test_every_application_needs_a_way(self):
        with pytest.raises(ValidationError):
            GroupSplit.pair(0, 12, 12)
        with pytest.raises(ValidationError):
            GroupSplit.pair(5, 0, 12)
        with pytest.raises(ValidationError):
            GroupSplit.disjoint(12, 12)


class _FakeBackend(SimBackend):
    """Four ways; fg cost falls with fg_ways, bg rate falls with them too."""

    def __init__(self):
        self.co_runs = []

    def capabilities(self):
        return BackendCapabilities(
            name="fake", llc_ways=4, fg_cost_unit="u", bg_rate_unit="v"
        )

    def co_run(self, tenants, split):
        self.co_runs.append(split)
        fg_ways, bg_ways = split.way_counts
        return GroupMeasurement(
            backend="fake",
            names=tenants.names,
            split=split,
            costs=(10.0 - fg_ways, None),
            rates=(None, float(bg_ways)),
            raw=object(),
        )


class _Named:
    def __init__(self, name):
        self.name = name


def _fake_spec():
    return TenantSet(tenants=[_Named("fg"), _Named("bg")])


class TestDefaultHooks:
    def test_default_sweep_co_runs_every_disjoint_split(self):
        backend = _FakeBackend()
        sweep = backend.sweep(_fake_spec())
        assert [w for w, _ in sweep] == [1, 2, 3]
        assert backend.co_runs == [
            GroupSplit.pair(1, 3, 4),
            GroupSplit.pair(2, 2, 4),
            GroupSplit.pair(3, 1, 4),
        ]
        assert all(m.raw is not None for _, m in sweep)

    def test_default_dynamic_is_rejected(self):
        with pytest.raises(ValidationError):
            _FakeBackend().dynamic(_fake_spec())

    def test_policies_run_on_any_backend(self):
        backend = _FakeBackend()
        for policy, ways in (("shared", 4), ("fair", 2), ("biased", 3)):
            outcome = run_policy(backend, _fake_spec(), policy)
            assert outcome.policy == policy
            assert outcome.fg_ways == ways
            assert outcome.backend == "fake"


def _measurement(fg_ways, fg_cost, bg_rate, llc_ways=12):
    return GroupMeasurement(
        backend="fake",
        names=("fg", "bg"),
        split=GroupSplit.disjoint(fg_ways, llc_ways),
        costs=(fg_cost, None),
        rates=(None, bg_rate),
    )


class TestChooseBiasedSplit:
    """The selection rule itself, on synthetic scores."""

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValidationError):
            choose_biased_split([])

    def test_picks_minimum_cost_without_ties(self):
        scored = [(w, _measurement(w, 100.0 - w, 1.0)) for w in range(1, 12)]
        assert choose_biased_split(scored)[0] == 11

    def test_tolerance_band_prefers_background_rate(self):
        scored = [
            (3, _measurement(3, 100.0, 5.0)),
            (4, _measurement(4, 100.2, 9.0)),  # within 0.5% of best
            (9, _measurement(9, 150.0, 50.0)),  # fast bg, but fg too slow
        ]
        assert choose_biased_split(scored)[0] == 4

    def test_exact_rate_ties_break_to_smaller_fg_allocation(self):
        scored = [
            (3, _measurement(3, 100.0, 5.0)),
            (4, _measurement(4, 100.2, 9.0)),
            (5, _measurement(5, 100.3, 9.0)),
        ]
        assert choose_biased_split(scored)[0] == 4

    def test_choice_is_order_independent(self):
        scored = [
            (3, _measurement(3, 100.0, 5.0)),
            (4, _measurement(4, 100.2, 9.0)),
            (5, _measurement(5, 100.3, 9.0)),
            (9, _measurement(9, 150.0, 50.0)),
        ]
        picks = {
            choose_biased_split(list(order))[0]
            for order in itertools.permutations(scored)
        }
        assert picks == {4}

    def test_biased_policy_applies_the_same_rule(self):
        backend = _FakeBackend()
        outcome = policy_biased(backend, _fake_spec())
        assert outcome.fg_ways == choose_biased_split(backend.sweep(_fake_spec()))[0]


class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("analytical", "trace")

    def test_get_backend_builds_fresh_instances(self):
        assert isinstance(get_backend("analytical"), AnalyticalBackend)
        assert isinstance(get_backend("trace"), TraceBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            get_backend("fpga")
