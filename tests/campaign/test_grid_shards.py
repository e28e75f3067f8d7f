"""Analytical grid shards: planning, execution fidelity, resume, CLI.

Mirror of the trace roster-shard suite for the vectorized analytical
path: shared/fair analytical cells must land in grid shards (one
``co_run_grid`` call each), produce records bit-identical to the
per-cell reference path, and participate in the same resume/retry/shard
checkpointing as every other shard kind.
"""

import io
import json

import pytest

from repro.analysis.store import list_runset_shards, load_runset
from repro.campaign import (
    expand_manifest,
    manifest_from_dict,
    run_campaign,
    run_campaign_cell,
    verify_campaign,
)
from repro.campaign.planner import plan_shards, shard_kind_for
from repro.cli import main
from repro.perf import engine_counters as ec


def analytical_manifest(**overrides):
    data = {
        "name": "analytical-grid",
        "backends": ["analytical"],
        "policies": ["shared", "fair"],
        "pairs": [
            ["canneal", "streamcluster"],
            ["blackscholes", "canneal"],
        ],
    }
    data.update(overrides)
    return manifest_from_dict(data)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestPlanning:
    def test_analytical_shared_and_fair_are_batchable(self):
        cells = expand_manifest(analytical_manifest())
        assert all(shard_kind_for(cell) == "grid" for cell in cells)

    def test_analytical_feedback_policies_batch_by_kind(self):
        # biased cells join sweep shards (one grid call per shard),
        # dynamic cells lockstep rosters: no analytical cell falls back.
        cells = expand_manifest(
            analytical_manifest(policies=["biased", "dynamic"])
        )
        assert [shard_kind_for(cell) for cell in cells] == [
            "sweep", "sweep", "dynamic", "dynamic"
        ]

    def test_plan_routes_analytical_to_grid_shards(self):
        cells = expand_manifest(
            analytical_manifest(policies=["shared", "fair", "biased"])
        )
        plan = plan_shards(cells, shard_size=3)
        # 4 grid cells at shard_size=3, and one 11-split biased cell per
        # sweep shard; no trace cells at all.
        assert [(kind, len(shard)) for kind, shard in plan.shards] == [
            ("grid", 3), ("grid", 1), ("sweep", 1), ("sweep", 1)
        ]

    def test_mixed_backends_split_by_shard_kind(self):
        cells = expand_manifest(
            analytical_manifest(
                backends=["trace", "analytical"],
                pairs=[["zipf", "stream"]],
                geometries=[{"accesses": 900}],
            )
        )
        plan = plan_shards(cells)
        # trace shared+fair, then analytical shared+fair.
        assert [(kind, len(shard)) for kind, shard in plan.shards] == [
            ("roster", 2), ("grid", 2)
        ]


class TestExecution:
    def test_grid_records_match_per_cell_reference(self, tmp_path):
        manifest = analytical_manifest()
        result = run_campaign(manifest, str(tmp_path / "store"))
        assert result.complete
        assert result.shards_by_kind == {"grid": 1}
        for cell in expand_manifest(manifest):
            reference = run_campaign_cell(cell)
            record = result.records[cell.cell_id]
            assert record.metrics == reference.metrics
            assert record.provenance["source"] == "grid"
            assert record.units == {"fg_cost": "s", "bg_rate": "instr/s"}

    def test_shard_files_tag_grid_kind(self, tmp_path):
        store = tmp_path / "store"
        run_campaign(analytical_manifest(), str(store))
        shards = list_runset_shards(str(store))
        assert len(shards) == 1
        shard = load_runset(shards[0])
        assert shard.meta["shard_kind"] == "grid"
        assert shard.meta["cells"] == 4

    def test_sequential_verification_passes(self, tmp_path):
        manifest = analytical_manifest()
        store = str(tmp_path / "store")
        run_campaign(manifest, store)
        assert verify_campaign(manifest, store) == 4

    def test_resume_replays_zero_cells(self, tmp_path):
        manifest = analytical_manifest()
        store = str(tmp_path / "store")
        run_campaign(manifest, store)
        before = ec.engine_counters().snapshot()
        again = run_campaign(manifest, store, resume=True)
        delta = ec.engine_counters().delta(before)
        assert again.cells_run == 0
        assert again.cells_skipped == 4
        assert delta.get(ec.CAMPAIGN_CELLS_RUN, 0) == 0
        assert delta.get(ec.GRID_CELLS, 0) == 0

    def test_grid_counters_tick_once_per_shard(self, tmp_path):
        before = ec.engine_counters().snapshot()
        run_campaign(analytical_manifest(), str(tmp_path / "store"))
        delta = ec.engine_counters().delta(before)
        assert delta.get(ec.GRID_CALLS, 0) == 1
        assert delta.get(ec.GRID_CELLS, 0) == 4


class TestFeedbackShards:
    """Analytical biased cells in sweep shards (one grid call per
    shard) and dynamic cells in lockstep rosters record exactly what the
    per-cell reference path records."""

    PAIRS = [
        ["canneal", "streamcluster"], ["blackscholes", "canneal"],
        ["459.GemsFDTD", "ferret"], ["fop", "fop"], ["x264", "429.mcf"],
        ["429.mcf", "streamcluster"], ["batik", "x264"],
    ]

    @pytest.mark.parametrize("shard_size", [1, 64])
    def test_records_equal_per_cell_reference(self, tmp_path, shard_size):
        manifest = analytical_manifest(
            policies=["biased", "dynamic"], pairs=self.PAIRS
        )
        before = ec.engine_counters().snapshot()
        result = run_campaign(
            manifest, str(tmp_path / "store"), shard_size=shard_size
        )
        delta = ec.engine_counters().delta(before)
        cells = expand_manifest(manifest)
        assert result.complete
        sweep_shards = -(-len(self.PAIRS) // max(1, shard_size // 11))
        dynamic_shards = -(-len(self.PAIRS) // shard_size)
        assert result.shards_by_kind == {
            "sweep": sweep_shards, "dynamic": dynamic_shards
        }
        assert delta.get(ec.GRID_CALLS, 0) == sweep_shards
        for cell in cells:
            reference = run_campaign_cell(cell)
            record = result.records[cell.cell_id]
            assert record.metrics == reference.metrics
            assert record.fg_ways == reference.fg_ways
            expected = dict(reference.provenance)
            expected["source"] = {"biased": "sweep", "dynamic": "dynamic"}[
                cell.policy
            ]
            assert record.provenance == expected
        assert verify_campaign(manifest, str(tmp_path / "store")) == len(cells)


class TestCli:
    def write_manifest(self, tmp_path, **overrides):
        data = {
            "name": "cli-analytical",
            "backends": ["analytical"],
            "policies": ["shared", "fair"],
            "pairs": [["canneal", "streamcluster"]],
        }
        data.update(overrides)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_plan_reports_grid_shards(self, tmp_path):
        code, text = run_cli(
            "campaign", "plan", self.write_manifest(tmp_path), "--dry-run"
        )
        assert code == 0
        assert "grid: 2 cells in 1 analytical grid shards" in text

    def test_run_and_resume_via_cli(self, tmp_path):
        manifest = self.write_manifest(tmp_path)
        store = str(tmp_path / "store")
        code, text = run_cli(
            "campaign", "run", manifest, "--store", store, "--check"
        )
        assert code == 0
        assert "2 cells run" in text
        assert "all metrics exact" in text
        code, text = run_cli(
            "campaign", "run", manifest, "--store", store, "--resume"
        )
        assert code == 0
        assert "0 cells run, 2 skipped" in text

    def test_fallback_shards_checkpoint_every_eight_cells(self, tmp_path):
        # Every analytical cell batches now; group biased cells on the
        # trace backend still run per cell.
        manifest = self.write_manifest(
            tmp_path, backends=["trace"], policies=["biased"], pairs=[],
            tenants=[["zipf", "stream"], ["stride", "chase"],
                     ["chase", "zipf"]],
            geometries=[{"accesses": 1000, "seed": seed}
                        for seed in (1, 2, 3)],
        )
        code, text = run_cli("campaign", "plan", manifest, "--dry-run")
        assert code == 0
        assert "fallback: 9 cells in 2 shards" in text
        store = str(tmp_path / "store")
        code, text = run_cli(
            "campaign", "run", manifest, "--store", store, "--workers", "1"
        )
        assert code == 0
        assert "9 cells run" in text and "2 shards written" in text
        shards = [load_runset(path) for path in list_runset_shards(store)]
        assert [(s.meta["shard_kind"], s.meta["cells"]) for s in shards] == [
            ("fallback", 8), ("fallback", 1)
        ]
