"""Shard planning: shard kinds, mask fidelity, and chunking."""

import pytest

from repro.campaign import expand_manifest, plan_shards
from repro.campaign.planner import (
    TraceTable,
    shard_kind_for,
    split_for,
    tenants_for,
)
from repro.util.errors import ValidationError

from .test_manifest import group_manifest, small_manifest


def cells_for(**overrides):
    return expand_manifest(small_manifest(**overrides))


def kind_shards(plan, kind):
    """The plan's shards of one kind, in order."""
    return [shard for name, shard in plan.shards if name == kind]


def kind_cells(plan, kind):
    return sum(map(len, kind_shards(plan, kind)))


class TestBatchability:
    def test_fixed_mask_trace_policies_are_batchable(self):
        for cell in cells_for(policies=["shared", "fair", "static-7"]):
            assert shard_kind_for(cell) == "roster"

    def test_trace_search_policies_batch_by_kind(self):
        # biased batches as a measured-sweep roster, dynamic as an
        # epoch-batched dynamic roster — every trace cell is batchable.
        for cell in cells_for(policies=["biased", "dynamic"]):
            expected = "sweep" if cell.policy == "biased" else "dynamic"
            assert shard_kind_for(cell) == expected

    def test_analytical_fixed_splits_are_grid_batchable(self):
        cells = cells_for(
            backends=["analytical"], policies=["shared", "fair"],
            pairs=[["fop", "batik"]],
        )
        assert all(shard_kind_for(c) == "grid" for c in cells)

    def test_analytical_search_policies_batch_by_kind(self):
        cells = cells_for(
            backends=["analytical"], policies=["biased", "dynamic"],
            pairs=[["fop", "batik"]],
        )
        assert [shard_kind_for(c) for c in cells] == ["sweep", "dynamic"]


class TestSplits:
    def test_split_shapes(self):
        shared, fair, static = (
            split_for(c)
            for c in cells_for(
                policies=["shared", "fair", "static-3"],
                pairs=[["zipf", "stream"]], geometries=[{}],
            )
        )
        assert shared.pair_ways() == (12, 12)
        assert fair.pair_ways() == (6, 6)
        assert static.pair_ways() == (3, 9)

    def test_roster_masks_match_backend_co_run(self):
        # The roster cell must apply the exact masks TraceBackend.co_run
        # applies, or batch replay silently measures a different machine.
        from repro.cache.llc import WayMask

        cell = cells_for(
            policies=["static-4"], pairs=[["zipf", "stream"]],
            geometries=[{}],
        )[0]
        table = TraceTable()
        row = table.row(cell)
        tenants, split = table.meta(row)
        assert split.pair_ways() == (4, 8)
        (roster,) = table.roster([row]).cells()
        fg, bg = tenants.tenants
        assert roster.workloads == [fg, bg]
        assert roster.masks[fg.tid // 2] == WayMask.contiguous(4, 0, 12)
        assert roster.masks[bg.tid // 2] == WayMask.contiguous(8, 4, 12)
        assert roster.masks == table.backend.roster_cell(
            tenants.tenants, split
        ).masks
        assert roster.total_accesses == cell.geometry_dict["accesses"]

    def test_non_batchable_cell_has_no_roster(self):
        cell = cells_for(policies=["biased"])[0]
        with pytest.raises(ValidationError, match="not batchable"):
            TraceTable().row(cell)


class TestPlanning:
    def test_chunking_is_deterministic(self):
        cells = cells_for(policies=["shared", "fair", "biased"])
        plan = plan_shards(cells, shard_size=3)
        again = plan_shards(cells, shard_size=3)
        assert [
            (kind, [c.cell_id for c in shard]) for kind, shard in plan.shards
        ] == [
            (kind, [c.cell_id for c in shard]) for kind, shard in again.shards
        ]
        # 8 roster cells in shards of 3; the 4 biased cells become sweep
        # shards chunked at shard_size // 11 (floor 1); nothing falls back.
        assert [len(s) for s in kind_shards(plan, "roster")] == [3, 3, 2]
        assert [len(s) for s in kind_shards(plan, "sweep")] == [1, 1, 1, 1]
        assert kind_shards(plan, "fallback") == []
        assert len(plan.shards) == 7

    def test_sweep_shards_chunk_by_native_call_width(self):
        # shard_size counts replay cells in the one native call, and a
        # sweep cell contributes 11 of them.
        cells = cells_for(policies=["biased"])
        plan = plan_shards(cells, shard_size=33)
        assert [len(s) for s in kind_shards(plan, "sweep")] == [3, 1]

    def test_dynamic_cells_plan_as_dynamic_shards(self):
        cells = cells_for(policies=["dynamic"])
        plan = plan_shards(cells, shard_size=3)
        assert [len(s) for s in kind_shards(plan, "dynamic")] == [3, 1]
        assert kind_cells(plan, "fallback") == 0

    def test_done_ids_are_skipped(self):
        cells = cells_for()
        done = {cells[0].cell_id, cells[5].cell_id}
        plan = plan_shards(cells, done_ids=done)
        assert {c.cell_id for c in plan.skipped} == done
        assert kind_cells(plan, "roster") == len(cells) - 2

    def test_shards_iterates_kinds_in_order(self):
        cells = cells_for(policies=["shared", "biased", "dynamic"])
        plan = plan_shards(cells, shard_size=22)
        kinds = [kind for kind, _ in plan.shards]
        assert kinds == ["roster", "sweep", "sweep", "dynamic"]

    def test_shard_size_must_be_positive(self):
        with pytest.raises(ValidationError, match=">= 1"):
            plan_shards(cells_for(), shard_size=0)


def group_cells_for(**overrides):
    return expand_manifest(group_manifest(**overrides))


class TestGroupBatchability:
    def test_fixed_split_group_cells_join_roster_shards(self):
        cells = group_cells_for(policies=["shared", "fair"], churn=[])
        assert cells and all(shard_kind_for(c) == "roster" for c in cells)

    def test_cluster_cells_get_their_own_shard_kind(self):
        cells = group_cells_for(policies=["cluster"], churn=[])
        assert [shard_kind_for(c) for c in cells] == ["cluster"]

    def test_group_search_policies_fall_back_per_cell(self):
        # Their control loops (utility scoring, churn-aware epoch
        # feedback) already make one batched native call per cell.
        cells = group_cells_for(policies=["biased", "dynamic"])
        assert cells and all(
            shard_kind_for(c) == "fallback" for c in cells
        )


class TestGroupSplits:
    def test_group_split_shapes(self):
        shared, fair = (
            split_for(c)
            for c in group_cells_for(policies=["shared", "fair"], churn=[])
        )
        assert shared.mask_bits == (0xFFF, 0xFFF, 0xFFF)
        assert fair.way_counts == (4, 4, 4)

    def test_two_tenant_fair_follows_the_pair_convention(self):
        # A 2-tenant fair roster cell must replay the exact split a
        # pair cell applies, remainder convention included.
        cell = group_cells_for(
            policies=["fair"], churn=[], tenants=[["zipf", "stream"]]
        )[0]
        pair_cell = cells_for(policies=["fair"], pairs=[["zipf", "stream"]])[0]
        assert split_for(cell) == split_for(pair_cell)
        assert split_for(cell).mask_bits == (0x03F, 0xFC0)

    def test_search_policies_have_no_precomputed_split(self):
        cell = group_cells_for(policies=["dynamic"], churn=[])[0]
        assert split_for(cell) is None

    def test_trace_group_for_builds_the_roster(self):
        cell = group_cells_for(policies=["shared"], churn=[])[0]
        group = tenants_for(cell)
        assert group.names == ("zipf", "stream", "chase")
        # One trace core per tenant, distinct domains.
        tids = [t.tid for t in group.tenants]
        assert len(set(tids)) == len(tids)


class TestGroupPlanning:
    def test_cluster_shards_chunk_by_profile_width(self):
        # A cluster cell contributes a 12-allocation profiling sweep, so
        # shards chunk at shard_size // 12.
        cells = group_cells_for(
            policies=["cluster"], churn=[],
            geometries=[{"accesses": 2000, "seed": s} for s in (1, 2, 3)],
        )
        assert len(cells) == 3
        plan = plan_shards(cells, shard_size=24)
        assert [len(s) for s in kind_shards(plan, "cluster")] == [2, 1]
        assert len(plan.shards) == 2

    def test_shards_order_includes_cluster_before_fallback(self):
        cells = group_cells_for(
            policies=["shared", "cluster", "dynamic"], churn=[]
        )
        plan = plan_shards(cells, shard_size=24)
        assert [kind for kind, _ in plan.shards] == [
            "roster", "cluster", "fallback"
        ]
