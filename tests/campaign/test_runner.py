"""Campaign execution: resume semantics, retries, and record fidelity."""

import json
import os

import pytest

from repro.analysis.store import list_runset_shards, load_runset_dir
from repro.campaign import (
    expand_manifest,
    manifest_from_dict,
    run_campaign,
    run_campaign_cell,
    verify_campaign,
)
from repro.campaign import runner as runner_mod
from repro.perf import engine_counters as ec
from repro.util.errors import ValidationError

from .test_manifest import small_manifest

ACCESSES = 800


def fast_manifest(**overrides):
    data = dict(
        policies=["shared", "fair", "static-3"],
        geometries=[{"accesses": ACCESSES}, {"accesses": ACCESSES, "seed": 2}],
    )
    data.update(overrides)
    return small_manifest(**data)


def replay_delta(snapshot):
    """The counters that prove cells actually executed."""
    delta = ec.engine_counters().delta(snapshot)
    return (
        delta.get(ec.TRACE_ACCESSES, 0)
        + delta.get(ec.BATCH_CELLS, 0)
        + delta.get(ec.CAMPAIGN_CELLS_RUN, 0)
    )


class TestExecution:
    def test_full_run_persists_every_cell(self, tmp_path):
        manifest = fast_manifest()
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), shard_size=4)
        cells = expand_manifest(manifest)
        assert result.complete
        assert result.cells_run == len(cells)
        merged = load_runset_dir(str(store))
        assert {
            r.provenance["cell_id"] for r in merged.records
        } == {c.cell_id for c in cells}
        # One shard file per executed shard, each a valid RunSet.
        assert len(list_runset_shards(str(store))) == result.shards_written

    def test_roster_records_match_per_cell_reference(self, tmp_path):
        manifest = fast_manifest()
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), shard_size=4)
        for cell in expand_manifest(manifest):
            reference = run_campaign_cell(cell)
            assert result.records[cell.cell_id].metrics == reference.metrics

    def test_verify_campaign_passes_and_counts(self, tmp_path):
        manifest = fast_manifest()
        store = tmp_path / "store"
        run_campaign(manifest, str(store))
        assert verify_campaign(manifest, str(store)) == len(
            expand_manifest(manifest)
        )

    def test_verify_campaign_names_a_missing_cell(self, tmp_path):
        manifest = fast_manifest()
        store = tmp_path / "store"
        run_campaign(
            manifest, str(store), shard_size=4, stop_after_shards=1
        )
        with pytest.raises(ValidationError, match="no record for cell"):
            verify_campaign(manifest, str(store))

    def test_biased_cells_run_as_sweep_shards(self, tmp_path):
        manifest = fast_manifest(
            policies=["biased"], pairs=[["zipf", "stream"]],
            geometries=[{"accesses": ACCESSES}],
        )
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), workers=1)
        assert result.shards_by_kind == {"sweep": 1}
        record = next(iter(result.records.values()))
        assert record.provenance["source"] == "sweep"
        assert record.provenance["sweep_points"] == 11
        assert verify_campaign(manifest, str(store)) == 1

    def test_dynamic_cells_run_as_dynamic_shards(self, tmp_path):
        manifest = fast_manifest(
            policies=["dynamic"],
            geometries=[{"accesses": ACCESSES}],
            controllers=[
                {"epoch_accesses": 200, "total_accesses": ACCESSES}
            ],
        )
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), workers=1)
        assert result.shards_by_kind == {"dynamic": 1}
        for record in result.records.values():
            assert record.provenance["source"] == "dynamic"
            assert "dynamic_actions" in record.provenance
        assert verify_campaign(manifest, str(store)) == 2

    def test_fallback_cells_run_through_the_pool(self, tmp_path):
        # A group biased cell: every analytical cell batches now.
        manifest = manifest_from_dict(
            {
                "name": "fallback",
                "backends": ["trace"],
                "policies": ["biased"],
                "tenants": [["zipf", "stream", "chase"]],
                "geometries": [{"accesses": ACCESSES}],
            }
        )
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), workers=1)
        assert result.shards_by_kind == {"fallback": 1}
        assert verify_campaign(manifest, str(store)) == 1

    def test_each_per_cell_co_run_is_one_batch_call(self):
        cells = expand_manifest(fast_manifest())
        snapshot = ec.engine_counters().snapshot()
        records = [run_campaign_cell(cell) for cell in cells]
        delta = ec.engine_counters().delta(snapshot)
        assert records
        assert all(r.provenance["source"] == "cell" for r in records)
        # Each per-cell co-run is its own one-cell batch call.
        assert delta.get(ec.BATCH_CELLS, 0) == delta.get(ec.BATCH_CALLS, 0)


class TestResume:
    def test_killed_campaign_resumes_without_replaying(self, tmp_path):
        manifest = fast_manifest()
        cells = expand_manifest(manifest)
        store = tmp_path / "store"

        # "Kill" the campaign after its first shard checkpoint.
        partial = run_campaign(
            manifest, str(store), shard_size=4, stop_after_shards=1
        )
        assert partial.stopped_early
        assert 0 < partial.cells_run < len(cells)
        persisted = {
            r.provenance["cell_id"]
            for r in load_runset_dir(str(store)).records
        }

        # Restart with resume: every persisted cell is skipped, only the
        # remainder executes.
        resumed = run_campaign(
            manifest, str(store), resume=True, shard_size=4
        )
        assert resumed.cells_skipped == len(persisted)
        assert resumed.cells_run == len(cells) - len(persisted)
        assert resumed.complete

    def test_complete_campaign_resumes_with_zero_replays(self, tmp_path):
        manifest = fast_manifest()
        store = tmp_path / "store"
        run_campaign(manifest, str(store), shard_size=4)

        snapshot = ec.engine_counters().snapshot()
        resumed = run_campaign(
            manifest, str(store), resume=True, shard_size=4
        )
        assert resumed.cells_run == 0
        assert resumed.shards_written == 0
        assert resumed.cells_skipped == len(expand_manifest(manifest))
        # Counter-proven: no trace access, batch cell, or campaign cell
        # executed during the resume.
        assert replay_delta(snapshot) == 0

    def test_indented_store_still_loads_and_resumes(self, tmp_path):
        """Shards are written compact; a store written indented by an
        older engine holds the same records and resumes with zero
        replays."""
        manifest = fast_manifest()
        store = tmp_path / "store"
        first = run_campaign(manifest, str(store), shard_size=4)
        for path in list_runset_shards(str(store)):
            with open(path) as handle:
                text = handle.read()
            assert "\n" not in text.strip()
            with open(path, "w") as handle:
                json.dump(json.loads(text), handle, indent=2, sort_keys=True)

        snapshot = ec.engine_counters().snapshot()
        resumed = run_campaign(
            manifest, str(store), resume=True, shard_size=4
        )
        assert resumed.cells_run == 0
        assert replay_delta(snapshot) == 0
        assert resumed.records == first.records

    def test_nonempty_store_without_resume_is_refused(self, tmp_path):
        manifest = fast_manifest()
        store = tmp_path / "store"
        run_campaign(manifest, str(store), shard_size=4)
        with pytest.raises(ValidationError, match="resume"):
            run_campaign(manifest, str(store), shard_size=4)

    def test_resume_result_carries_the_stored_records(self, tmp_path):
        manifest = fast_manifest()
        store = tmp_path / "store"
        first = run_campaign(manifest, str(store))
        resumed = run_campaign(manifest, str(store), resume=True)
        assert set(resumed.records) == set(first.records)

    def test_corrupt_shard_is_a_validation_error_naming_the_file(
        self, tmp_path
    ):
        manifest = fast_manifest()
        store = tmp_path / "store"
        run_campaign(manifest, str(store), shard_size=4)
        bad = os.path.join(str(store), "shard-999-000000.json")
        with open(bad, "w") as handle:
            handle.write("{definitely not json")
        with pytest.raises(ValidationError, match="shard-999-000000.json"):
            run_campaign(manifest, str(store), resume=True, shard_size=4)

    def test_truncated_shard_payload_is_a_validation_error(self, tmp_path):
        # A syntactically valid shard missing record fields must raise
        # ValidationError, never a bare KeyError.
        manifest = fast_manifest()
        store = tmp_path / "store"
        run_campaign(manifest, str(store), shard_size=4)
        path = list_runset_shards(str(store))[0]
        with open(path) as handle:
            payload = json.load(handle)
        del payload["records"][0]["policy"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        try:
            run_campaign(manifest, str(store), resume=True, shard_size=4)
        except ValidationError:
            pass
        else:  # pragma: no cover
            pytest.fail("corrupt record silently accepted")


class TestRetry:
    def test_transient_failure_is_retried_and_recorded(
        self, tmp_path, monkeypatch
    ):
        manifest = fast_manifest(
            policies=["shared"], pairs=[["zipf", "stream"]],
            geometries=[{"accesses": ACCESSES}],
        )
        original = runner_mod._EXECUTORS["roster"]
        calls = []

        def flaky(shard, *args):
            calls.append(len(shard))
            if len(calls) == 1:
                raise RuntimeError("spurious host failure")
            return original(shard, *args)

        monkeypatch.setitem(runner_mod._EXECUTORS, "roster", flaky)
        snapshot = ec.engine_counters().snapshot()
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), max_attempts=2)
        delta = ec.engine_counters().delta(snapshot)
        assert len(calls) == 2
        assert result.retries == 1
        assert delta.get(ec.CAMPAIGN_RETRIES, 0) == 1
        record = next(iter(result.records.values()))
        assert record.provenance["attempts"] == 2

    def test_attempts_are_bounded(self, tmp_path, monkeypatch):
        manifest = fast_manifest(
            policies=["shared"], pairs=[["zipf", "stream"]],
            geometries=[{"accesses": ACCESSES}],
        )
        calls = []

        def always_fails(shard, *args):
            calls.append(1)
            raise RuntimeError("dead host")

        monkeypatch.setitem(runner_mod._EXECUTORS, "roster", always_fails)
        with pytest.raises(ValidationError, match="failed after 3 attempts"):
            run_campaign(manifest, str(tmp_path / "store"), max_attempts=3)
        assert len(calls) == 3

    def test_deterministic_errors_are_not_retried(
        self, tmp_path, monkeypatch
    ):
        manifest = fast_manifest(
            policies=["shared"], pairs=[["zipf", "stream"]],
            geometries=[{"accesses": ACCESSES}],
        )
        calls = []

        def misconfigured(shard, *args):
            calls.append(1)
            raise ValidationError("bad geometry")

        monkeypatch.setitem(runner_mod._EXECUTORS, "roster", misconfigured)
        with pytest.raises(ValidationError, match="bad geometry"):
            run_campaign(manifest, str(tmp_path / "store"), max_attempts=5)
        assert len(calls) == 1


class TestGroupCampaign:
    CHURN = [
        {"tenant": "chase", "epoch": 1, "action": "join"},
        {"tenant": "stream", "epoch": 2, "action": "leave"},
    ]

    def _manifest(self, **overrides):
        data = {
            "name": "groups",
            "backends": ["trace"],
            "policies": ["shared", "fair", "cluster", "dynamic"],
            "pairs": [["zipf", "stream"]],
            "tenants": [["zipf", "stream", "chase"]],
            "geometries": [{"accesses": ACCESSES}],
            "controllers": [
                {"epoch_accesses": 200, "total_accesses": ACCESSES}
            ],
            "churn": [self.CHURN],
        }
        data.update(overrides)
        return manifest_from_dict(data)

    def test_group_campaign_runs_every_shard_kind(self, tmp_path):
        manifest = self._manifest()
        cells = expand_manifest(manifest)
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), workers=1)
        assert result.complete
        assert result.cells_run == len(cells) == 8
        # Pair shared/fair and group shared/fair share the roster; the
        # cluster cell gets its own shard; group dynamic (with and
        # without churn) falls back per-cell.
        assert result.shards_by_kind == {
            "roster": 1, "dynamic": 1, "cluster": 1, "fallback": 1
        }
        assert verify_campaign(manifest, str(store)) == 8

    def test_group_records_carry_roster_and_provenance(self, tmp_path):
        manifest = self._manifest()
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), workers=1)
        by_cell = {
            c.cell_id: c for c in expand_manifest(manifest)
        }
        sources = {}
        for cell_id, record in result.records.items():
            cell = by_cell[cell_id]
            if cell.tenants:
                assert record.tenants == ("zipf", "stream", "chase")
                assert record.bg == "stream+chase"
                sources[(cell.policy, bool(cell.churn))] = (
                    record.provenance["source"]
                )
                if cell.churn:
                    assert record.provenance["churn"] == self.CHURN
            else:
                assert not record.tenants
        assert sources == {
            ("shared", False): "roster",
            ("fair", False): "roster",
            ("cluster", False): "cluster",
            ("dynamic", False): "cell",
            ("dynamic", True): "cell",
        }

    def test_sharded_group_records_match_per_cell_reference(self, tmp_path):
        # Roster- and cluster-shard replay must be bit-identical to the
        # sequential run_campaign_cell path.
        manifest = self._manifest(
            policies=["shared", "fair", "cluster"], pairs=[], churn=[]
        )
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), workers=1)
        for cell in expand_manifest(manifest):
            reference = run_campaign_cell(cell)
            record = result.records[cell.cell_id]
            assert record.metrics == reference.metrics
            assert record.tenants == reference.tenants


class TestTraceTable:
    """A run resolves each distinct workload, pack, split and mask once;
    a roster shard is then one roster over those indices."""

    @staticmethod
    def _mixed_manifest(**overrides):
        # zipf is the foreground of both pairs and tenant 0 of both
        # groups (one pack); stream is a background in every cell (one
        # pack, seed-free); the fixed splits share their masks.
        data = {
            "name": "mixed",
            "backends": ["trace"],
            "policies": ["shared", "fair", "static-3", "static-9"],
            "pairs": [["zipf", "stream"], ["zipf", "chase"]],
            "tenants": [["zipf", "stream", "chase"], ["zipf", "stream"]],
            "geometries": [
                {"accesses": ACCESSES}, {"accesses": ACCESSES, "seed": 2},
            ],
        }
        data.update(overrides)
        return manifest_from_dict(data)

    @staticmethod
    def _comparable(record):
        data = record.to_dict()
        data["provenance"] = {
            k: v for k, v in data["provenance"].items() if k != "source"
        }
        return data

    @pytest.mark.parametrize("native_on", [True, False],
                             ids=["native", "python"])
    def test_mixed_shard_records_equal_the_per_cell_reference(
        self, tmp_path, native_on
    ):
        from .._native import without_native

        manifest = self._mixed_manifest()
        cells = expand_manifest(manifest)
        assert {bool(c.tenants) for c in cells} == {True, False}

        def run():
            return run_campaign(manifest, str(tmp_path / "store"))

        result = run() if native_on else without_native(run)
        assert result.shards_by_kind == {"roster": 1} and result.complete
        for cell in cells:
            record = result.records[cell.cell_id]
            assert record.provenance["source"] == "roster"
            reference = run_campaign_cell(cell)
            assert self._comparable(record) == self._comparable(reference)

    @staticmethod
    def _every_trace_kind():
        """A manifest reaching every trace shard kind: roster, sweep,
        dynamic, cluster, and the group biased/dynamic fallback cells."""
        return small_manifest(
            policies=["shared", "fair", "biased", "dynamic", "cluster"],
            pairs=[["zipf", "stream"]],
            tenants=[["zipf", "stream", "chase"]],
            geometries=[{"accesses": ACCESSES}],
            controllers=[{"epoch_accesses": 200, "total_accesses": ACCESSES}],
        )

    @staticmethod
    def _distinct_packs(manifest):
        from repro.campaign.planner import tenants_for
        from repro.workloads.tracepack import pack_key

        return {
            pack_key(w.trace_factory())
            for cell in expand_manifest(manifest)
            for w in tenants_for(cell).tenants
        }

    @pytest.fixture()
    def pack_registry(self, monkeypatch, tmp_path):
        """A fresh process pack registry over a private cache dir."""
        from repro.workloads import tracepack

        monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        return tracepack

    @pytest.mark.parametrize("kinds", [
        ("roster",),
        ("roster", "sweep", "dynamic", "cluster", "fallback"),
    ], ids=["roster", "every-kind"])
    def test_each_pack_opened_or_compiled_once(
        self, tmp_path, monkeypatch, pack_registry, kinds
    ):
        """On a roster-only run and on one reaching every trace shard
        kind, a run opens (warm cache) or compiles (cold cache) each
        distinct pack at most once, and a second run in the same
        process opens and compiles nothing."""
        tracepack = pack_registry
        manifest = (
            self._mixed_manifest() if kinds == ("roster",)
            else self._every_trace_kind()
        )
        distinct = self._distinct_packs(manifest)
        opened = []
        original = tracepack._open_pack_dir

        def counted(path, *args, **kwargs):
            opened.append(path)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(tracepack, "_open_pack_dir", counted)

        def run(store):
            opened.clear()
            before = ec.engine_counters().snapshot()
            result = run_campaign(manifest, str(tmp_path / store), workers=1)
            assert {
                kind for kind, n in result.shards_by_kind.items() if n
            } == set(kinds)
            misses = ec.engine_counters().delta(before).get(ec.PACK_MISSES, 0)
            return list(opened), misses

        # Cold cache: each pack compiles once (then is probed and
        # reopened from disk once each).
        opens, misses = run("cold")
        assert misses == len(distinct)
        assert len(opens) == 2 * len(distinct) == 2 * len(set(opens))
        assert run("cold-again") == ([], 0)
        # Warm cache, fresh registry (a new process): one open per pack.
        tracepack._OPEN_PACKS.clear()
        opens, misses = run("warm")
        assert misses == 0
        assert len(opens) == len(distinct) == len(set(opens))
        assert run("warm-again") == ([], 0)

    def test_unwritable_cache_compiles_each_pack_once(
        self, tmp_path, monkeypatch, pack_registry
    ):
        """With a cache that cannot be written, every pack lives in
        memory in the registry: dynamic, cluster and fallback rosters
        reuse it instead of compiling again, and the records equal a
        writable-cache run's."""
        manifest = self._every_trace_kind()
        writable = run_campaign(manifest, str(tmp_path / "writable"))

        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(blocked))
        before = ec.engine_counters().snapshot()
        result = run_campaign(manifest, str(tmp_path / "store"))
        delta = ec.engine_counters().delta(before)
        assert result.shards_by_kind["dynamic"]
        assert result.shards_by_kind["cluster"]
        assert delta.get(ec.PACK_MISSES) == len(
            self._distinct_packs(manifest)
        )
        assert {
            cell_id: record.to_dict()
            for cell_id, record in result.records.items()
        } == {
            cell_id: record.to_dict()
            for cell_id, record in writable.records.items()
        }

    def test_rows_share_workloads_packs_and_masks(self):
        from repro.campaign.planner import TraceTable

        cells = expand_manifest(self._mixed_manifest())
        table = TraceTable()
        rows = [table.row(cell) for cell in cells]
        assert len(set(rows)) == len(cells)
        # Two geometries x (two pairs + two groups) of workloads.
        assert len(table.workloads) == 2 * (2 + 2 + 3 + 2)
        assert len({id(p) for p in table.packs}) < len(table.packs)
        # shared/fair/static-3/static-9 pair masks + group masks.
        assert len(table.masks) <= 10
        roster = table.roster(rows)
        assert roster.members.shape == (len(cells), 3)
        assert roster.packs is table.packs


class TestAnalyticalCells:
    def test_analytical_campaign_runs_and_verifies(self, tmp_path):
        manifest = manifest_from_dict(
            {
                "name": "analytical",
                "backends": ["analytical"],
                "policies": ["shared", "fair"],
                "pairs": [["fop", "batik"]],
            }
        )
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), workers=1)
        assert result.complete
        assert result.shards_by_kind == {"grid": 1}
        assert verify_campaign(manifest, str(store)) == 2
        record = next(iter(result.records.values()))
        assert record.units == {"fg_cost": "s", "bg_rate": "instr/s"}


class TestShardKinds:
    """One run reaching every shard kind: the store holds one shard file
    per planned shard, in plan order."""

    @staticmethod
    def _cells():
        # Trace kinds and analytical applications are separate
        # vocabularies and the tenants axis is trace-only, so the run
        # joins a trace manifest's cells (a pair and a 3-tenant roster)
        # with an analytical one's.
        trace = small_manifest(
            policies=["shared", "fair", "biased", "dynamic", "cluster"],
            pairs=[["zipf", "stream"]],
            tenants=[["zipf", "stream", "chase"]],
            geometries=[{"accesses": ACCESSES}],
            controllers=[{"epoch_accesses": 200, "total_accesses": ACCESSES}],
        )
        analytical = small_manifest(
            backends=["analytical"],
            policies=["shared", "fair", "biased", "dynamic"],
            pairs=[["canneal", "streamcluster"]],
        )
        return trace, expand_manifest(trace) + expand_manifest(analytical)

    def test_shard_files_follow_the_plan(self, tmp_path):
        from repro.analysis.store import load_runset
        from repro.campaign import plan_shards
        from repro.campaign.planner import SHARD_KINDS

        manifest, cells = self._cells()
        plan = plan_shards(cells)
        kinds = [kind for kind, _ in plan.shards]
        # A shard holds one backend: trace, then analytical sweep and
        # dynamic shards.
        assert kinds == [
            "roster", "grid", "sweep", "sweep", "dynamic", "dynamic",
            "cluster", "fallback",
        ]
        assert [
            {cell.backend for cell in shard} for _, shard in plan.shards
        ] == [{"trace"}, {"analytical"}, {"trace"}, {"analytical"},
              {"trace"}, {"analytical"}, {"trace"}, {"trace"}]
        assert list(dict.fromkeys(kinds)) == [k.name for k in SHARD_KINDS]
        assert list(dict.fromkeys(kinds)) == list(runner_mod._EXECUTORS)
        store = tmp_path / "store"
        result = run_campaign(manifest, str(store), cells=cells, workers=1)
        assert result.complete and result.cells_run == len(cells)
        written = [
            load_runset(path).meta
            for path in list_runset_shards(str(store))
        ]
        assert [(m["shard_kind"], m["cells"]) for m in written] == [
            (kind, len(shard)) for kind, shard in plan.shards
        ]
