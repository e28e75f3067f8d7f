"""The tenant-set protocol: splits, tenant sets, pair lockstep.

A pair is the 2-tenant set: a campaign's pair cell and its 2-tenant
``tenants`` cell must record the same numbers, and N-tenant group
replay must agree exactly with the sequential per-tenant reference.
"""

import os

import pytest

from repro.analysis.experiments import (
    trace_group_spec,
    verify_trace_group_replay,
)
from repro.backend import (
    AnalyticalBackend,
    GroupSplit,
    TenantSet,
    TraceBackend,
)
from repro.backend.protocol import MAX_TENANTS, WayUtility
from repro.campaign import manifest_from_dict, run_campaign
from repro.core.clustering import cluster_tenants
from repro.core.policies import run_policy
from repro.sim.trace_engine import _run_roster_sequential, run_packed_roster
from repro.util.errors import ValidationError

from .._native import without_native
from .test_protocol import _FakeBackend, _fake_spec

ACCESSES = 8_000


@pytest.fixture(scope="module", autouse=True)
def _module_pack_cache(tmp_path_factory):
    from repro.workloads import tracepack

    saved_packs = tracepack._OPEN_PACKS
    saved_env = os.environ.get("REPRO_TRACE_CACHE")
    tracepack._OPEN_PACKS = {}
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("traces"))
    yield
    tracepack._OPEN_PACKS = saved_packs
    if saved_env is None:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    else:
        os.environ["REPRO_TRACE_CACHE"] = saved_env


def _trace_backend():
    return TraceBackend(total_accesses=ACCESSES)


def _group(kinds=("zipf", "stream", "chase")):
    return trace_group_spec(
        kinds, accesses=ACCESSES, footprint_mb=1.0, bg_footprint_mb=2.0,
    )


class TestGroupSplit:
    def test_shared_gives_everyone_the_full_mask(self):
        split = GroupSplit.shared(3, 12)
        assert split.mask_bits == (0xFFF, 0xFFF, 0xFFF)
        assert split.way_counts == (12, 12, 12)

    def test_fair_apportioning_remainder_to_earliest(self):
        split = GroupSplit.fair(5, 12)
        assert split.way_counts == (3, 3, 2, 2, 2)
        # Contiguous bottom-up, disjoint.
        combined = 0
        for bits in split.mask_bits:
            assert combined & bits == 0
            combined |= bits
        assert combined == 0xFFF

    def test_fair_needs_a_way_per_tenant(self):
        with pytest.raises(ValidationError, match="fairly split"):
            GroupSplit.fair(13, 12)

    def test_from_way_counts_packs_bottom_up(self):
        split = GroupSplit.from_way_counts([9, 1, 2], 12)
        assert split.mask_bits == (0x1FF, 0x200, 0xC00)

    def test_from_way_counts_rejects_overflow_and_empty(self):
        with pytest.raises(ValidationError, match="exceed"):
            GroupSplit.from_way_counts([9, 4], 12)
        with pytest.raises(ValidationError, match="at least one way"):
            GroupSplit.from_way_counts([12, 0], 12)

    def test_pair_round_trip_for_every_pair_realization(self):
        # Every split a pair policy can produce is recognized as the
        # pair shape it was built from.
        pair_splits = [GroupSplit.shared(2, 12), GroupSplit.fair(2, 12)] + [
            GroupSplit.disjoint(fg, 12) for fg in range(1, 12)
        ]
        for split in pair_splits:
            fg_ways, bg_ways = split.pair_ways()
            assert GroupSplit.pair(fg_ways, bg_ways, 12) == split
            assert split.mask_bits[0] == (1 << fg_ways) - 1
            assert split.mask_bits[1] >> (12 - bg_ways) == (1 << bg_ways) - 1

    def test_non_pair_shapes_have_no_pair_ways(self):
        assert GroupSplit.shared(3, 12).pair_ways() is None
        # fg mask not bottom-contiguous.
        assert GroupSplit((0x00C, 0xC00), 12).pair_ways() is None
        # bg mask not top-contiguous.
        assert GroupSplit((0x007, 0x0F0), 12).pair_ways() is None

    def test_mask_validation(self):
        with pytest.raises(ValidationError, match="empty way mask"):
            GroupSplit((0xFFF, 0), 12)
        with pytest.raises(ValidationError, match="exceeds"):
            GroupSplit((0x1FFF,), 12)
        with pytest.raises(ValidationError, match="1..16"):
            GroupSplit(tuple([1] * (MAX_TENANTS + 1)), 12)


class TestTenantSet:
    def test_names_default_to_workload_names(self):
        group = _group()
        assert group.names == ("zipf", "stream", "chase")
        assert group.primary is group.tenants[0]

    def test_duplicate_kinds_are_aliased(self):
        assert _group(("zipf", "stream", "chase", "stream")).names == (
            "zipf", "stream", "chase", "stream#2"
        )

    def test_group_size_bounds(self):
        tenant = _group().tenants[0]
        with pytest.raises(ValidationError, match="2..16"):
            TenantSet(tenants=[tenant])

    def test_duplicate_names_rejected(self):
        a, b = _group().tenants[:2]
        with pytest.raises(ValidationError, match="unique"):
            TenantSet(tenants=[a, b], names=("same", "same"))



class TestWayUtility:
    def test_lookup_and_bounds(self):
        utility = WayUtility(
            name="t", hits_by_ways=tuple(float(10 * w) for w in range(1, 13)),
            accesses=1000.0,
        )
        assert utility.llc_ways == 12
        assert utility.hits_at(1) == 10.0
        assert utility.misses_at(12) == 880.0
        assert utility.miss_ratio_at(12) == 0.88
        with pytest.raises(ValidationError, match="1..12"):
            utility.hits_at(0)
        with pytest.raises(ValidationError, match="1..12"):
            utility.hits_at(13)

    def test_zero_access_curve_is_all_zero_ratio(self):
        utility = WayUtility(name="t", hits_by_ways=(0.0,) * 12, accesses=0.0)
        assert utility.miss_ratio_at(6) == 0.0


class TestDefaultHooks:
    def test_way_utility_default_is_rejected(self):
        with pytest.raises(ValidationError, match="way-utility"):
            _FakeBackend().way_utility(_fake_spec())


_LOCKSTEP_POLICIES = ("shared", "fair", "biased", "dynamic")


def _records_by_shape(store, manifest):
    """``{(policy, "pair" | "group"): record}`` of one campaign run."""
    result = run_campaign(manifest, str(store))
    return {
        (r.policy, "group" if r.tenants else "pair"): r
        for r in result.records.values()
    }


class TestPairLockstep:
    """A pair cell and its 2-tenant ``tenants`` cell record the same
    numbers: the pair is the 2-tenant case of the group, not a twin
    of it."""

    @pytest.fixture(scope="class")
    def trace_records(self, tmp_path_factory):
        manifest = manifest_from_dict({
            "name": "pair-lockstep",
            "backends": ["trace"],
            "policies": list(_LOCKSTEP_POLICIES),
            "pairs": [["zipf", "stream"]],
            "tenants": [["zipf", "stream"]],
            # Big enough that shared, fair and biased measure
            # different foreground costs.
            "geometries": [{"accesses": 20_000}],
            "controllers": [{"epoch_accesses": 2_000}],
        })
        return _records_by_shape(
            tmp_path_factory.mktemp("pair-lockstep"), manifest
        )

    @pytest.mark.parametrize("policy", _LOCKSTEP_POLICIES)
    def test_trace_pairs_are_bit_identical(self, trace_records, policy):
        pair = trace_records[(policy, "pair")]
        group = trace_records[(policy, "group")]
        assert group.tenants == ("zipf", "stream")
        assert (pair.fg, pair.bg) == (group.fg, group.bg)
        for metric in ("fg_cost", "bg_rate", "fg_ways", "bg_ways"):
            assert pair.metrics[metric] == group.metrics[metric], metric
        assert (pair.fg_ways, pair.bg_ways) == (group.fg_ways, group.bg_ways)

    @pytest.mark.parametrize("policy", ["shared", "fair"])
    def test_analytical_pairs_are_bit_identical(
        self, tmp_path, machine, policy
    ):
        # Analytical campaigns take no tenants axis: the grid shard's
        # pair record equals the policy run on the same 2-tenant set.
        manifest = manifest_from_dict({
            "name": "pair-lockstep-analytical",
            "backends": ["analytical"],
            "policies": [policy],
            "pairs": [["fop", "batik"]],
        })
        (record,) = run_campaign(manifest, str(tmp_path)).records.values()
        outcome = run_policy(
            AnalyticalBackend(machine),
            AnalyticalBackend.group_spec(["fop", "batik"]),
            policy,
        )
        assert record.metrics["fg_cost"] == outcome.fg_cost
        assert record.metrics["bg_rate"] == outcome.bg_rate
        assert (record.fg_ways, record.bg_ways) == (
            outcome.fg_ways, outcome.bg_ways
        )


class TestGroupReference:
    """N-tenant group replay == sequential per-tenant reference."""

    @pytest.mark.parametrize("policy", ["shared", "fair", "cluster"])
    def test_static_group_policies_verify_exactly(self, policy):
        backend = _trace_backend()
        outcome = run_policy(backend, _group(), policy)
        assert len(outcome.names) == 3
        assert verify_trace_group_replay(backend, _group(), outcome) == 6

    def test_four_tenant_cluster_verifies_exactly(self):
        backend = _trace_backend()
        group = _group(("zipf", "stream", "chase", "stream"))
        outcome = run_policy(backend, group, "cluster")
        assert outcome.plan is not None
        assert sum(
            ways for _, _, ways in outcome.plan.clusters
        ) == backend.capabilities().llc_ways
        assert verify_trace_group_replay(backend, group, outcome) == 8

    def test_group_fair_masks_are_disjoint_and_cover(self):
        outcome = run_policy(_trace_backend(), _group(), "fair")
        combined = 0
        for bits in outcome.split.mask_bits:
            assert combined & bits == 0
            combined |= bits
        assert combined == 0xFFF

    def test_analytical_groups_run_the_same_policies(self, machine):
        backend = AnalyticalBackend(machine)
        group = AnalyticalBackend.group_spec(["fop", "batik", "dedup"])
        for policy in ("shared", "fair", "cluster"):
            outcome = run_policy(backend, group, policy)
            assert outcome.backend == "analytical"
            assert len(outcome.measurement.costs) == 3
            assert outcome.fg_cost > 0


class TestClusterRoster:
    """A batched roster of 4-tenant cluster splits == per-cell replay, at
    any kernel thread count and with the native kernels off."""

    @pytest.fixture(scope="class")
    def planned(self):
        # Big enough that LFOC finds cache-sensitive tenants and the
        # plans partition the LLC (smaller groups all share it).
        accesses = 20_000
        backend = TraceBackend(total_accesses=accesses)
        llc_ways = backend.capabilities().llc_ways
        planned = []
        for seed in (1, 2):
            group = trace_group_spec(
                ("zipf", "stream", "chase", "stream"),
                accesses=accesses, seed=seed,
            )
            plan = cluster_tenants(
                backend.way_utility(group), names=group.names,
                llc_ways=llc_ways,
            )
            planned.append((group, plan.split))
        return backend, planned

    def test_batched_matches_sequential_across_threads_and_native(
        self, planned
    ):
        backend, groups = planned
        shared = GroupSplit.shared(4, backend.capabilities().llc_ways)
        assert all(split != shared for _, split in groups)

        def roster():
            return [
                backend.roster_cell(group.tenants, split)
                for group, split in groups
            ]

        reference = _run_roster_sequential(roster())
        for threads in (1, 4):
            assert run_packed_roster(roster(), threads=threads) == reference
        assert without_native(lambda: run_packed_roster(roster())) == (
            reference
        )
