"""Versioned persistence: run sets and their shards."""

import json
import os

import pytest

from repro.analysis.store import (
    RUNSET_VERSION,
    RunRecord,
    RunSet,
    list_runset_shards,
    load_runset,
    load_runset_dir,
    merge_runsets,
    save_runset,
    save_runset_shard,
    shard_path,
)
from repro.util.errors import ValidationError


def _record(policy="biased", fg="fop", bg="batik", fg_ways=9):
    return RunRecord(
        policy=policy,
        backend="analytical",
        fg=fg,
        bg=bg,
        fg_ways=fg_ways,
        bg_ways=12 - fg_ways,
        metrics={"fg_cost": 1.25, "bg_rate": 3.5,
                 "fg_ways": float(fg_ways), "bg_ways": float(12 - fg_ways)},
        units={"fg_cost": "s", "bg_rate": "instr/s"},
        provenance={"sweep_points": 11},
    )


class TestRunSetRoundTrip:
    def test_save_then_load_preserves_records(self, tmp_path):
        path = tmp_path / "runs.json"
        runset = RunSet(
            records=[_record(), _record(policy="fair", fg_ways=6)],
            backend="analytical",
            model_version="1.0",
            meta={"source": "test"},
        )
        assert save_runset(runset, path) == 2
        loaded = load_runset(path)
        assert loaded.records == runset.records
        assert loaded.backend == "analytical"
        assert loaded.model_version == "1.0"
        assert loaded.meta == {"source": "test"}

    def test_writes_are_atomic_and_leave_no_droppings(self, tmp_path):
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[_record()]), path)
        assert os.listdir(tmp_path) == ["runs.json"]

    def test_duplicate_keys_keep_the_last_record(self):
        first = _record(fg_ways=9)
        second = _record(fg_ways=3)
        runset = RunSet(records=[first, second])
        assert runset.by_key()[("biased", "fop", "batik")] is second


class TestRunSetInvalidation:
    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ValidationError, match="no run set"):
            load_runset(tmp_path / "absent.json")

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="corrupt"):
            load_runset(path)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[_record()]), path)
        payload = json.loads(path.read_text())
        payload["runset_version"] = RUNSET_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="schema version"):
            load_runset(path)

    def test_records_must_be_a_list(self, tmp_path):
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[_record()]), path)
        payload = json.loads(path.read_text())
        payload["records"] = {"nope": 1}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="not a list"):
            load_runset(path)

    def test_malformed_record_is_a_validation_error(self, tmp_path):
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[_record()]), path)
        payload = json.loads(path.read_text())
        del payload["records"][0]["policy"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="malformed run record"):
            load_runset(path)

    def test_non_numeric_metrics_rejected(self, tmp_path):
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[_record()]), path)
        payload = json.loads(path.read_text())
        payload["records"][0]["metrics"]["fg_cost"] = "fast"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="malformed run record"):
            load_runset(path)


class TestGroupRecords:
    """N-tenant records: identity is the tenant tuple, not fg/bg."""

    def _group_record(self, tenants=("zipf", "stream", "chase")):
        return RunRecord(
            policy="fair",
            backend="trace",
            fg=tenants[0],
            bg="+".join(tenants[1:]),
            fg_ways=4,
            bg_ways=4,
            metrics={"fg_cost": 2.0, "bg_rate": 30.0},
            tenants=tuple(tenants),
        )

    def test_key_is_the_full_tenant_tuple(self):
        record = self._group_record()
        assert record.key == ("fair", "zipf", "stream", "chase")
        # A pair record with the same fg/bg display fields keys
        # differently, so the two never collide in a diff.
        pair = _record(policy="fair", fg="zipf", bg="stream+chase")
        assert pair.key == ("fair", "zipf", "stream+chase")
        assert record.key != pair.key

    def test_round_trip_preserves_tenants(self, tmp_path):
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[self._group_record()]), path)
        loaded = load_runset(path)
        assert loaded.records[0].tenants == ("zipf", "stream", "chase")
        assert loaded.records[0].key == ("fair", "zipf", "stream", "chase")

    def test_pair_records_keep_their_on_disk_shape(self, tmp_path):
        # Pair payloads must not grow a 'tenants' field, or old tooling
        # sees a schema it never wrote.
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[_record()]), path)
        payload = json.loads(path.read_text())
        assert "tenants" not in payload["records"][0]

    def test_malformed_tenants_key_is_a_validation_error(self, tmp_path):
        path = tmp_path / "runs.json"
        save_runset(RunSet(records=[self._group_record()]), path)
        payload = json.loads(path.read_text())
        for bad in ("zipf,stream", [1, 2, 3], {"a": 1}):
            payload["records"][0]["tenants"] = bad
            path.write_text(json.dumps(payload))
            with pytest.raises(ValidationError, match="tenants"):
                load_runset(path)


class TestRunSetShards:
    def test_shard_paths_are_unique_within_a_process(self, tmp_path):
        names = {shard_path(str(tmp_path)) for _ in range(50)}
        assert len(names) == 50
        assert all(f"-{os.getpid()}-" in name for name in names)

    def test_shard_writes_are_atomic_and_leave_no_droppings(self, tmp_path):
        save_runset_shard(RunSet(records=[_record()]), str(tmp_path))
        save_runset_shard(RunSet(records=[_record(policy="fair")]),
                          str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2
        assert all(n.startswith("shard-") and n.endswith(".json")
                   for n in names)

    def test_shard_write_runs_on_the_c_encoder(self, tmp_path, monkeypatch):
        """The shard file is one ``json.dumps`` of the payload: with the
        pure-Python iterating encoder made to raise, the write still
        succeeds and its bytes equal the one-shot encoding."""
        import json.encoder

        def python_encoder(*args, **kwargs):
            raise AssertionError("shard write took the Python encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        runset = RunSet(records=[_record(), _record(policy="fair")])
        path = save_runset_shard(runset, str(tmp_path))
        with open(path) as handle:
            written = handle.read()
        assert written == json.dumps(
            runset.to_dict(), separators=(",", ":"), sort_keys=True
        )

    def test_merge_preserves_input_order_and_joins_backends(self):
        a = RunSet(records=[_record(policy="shared")], backend="analytical",
                   model_version="1.0.0")
        b = RunSet(records=[_record(policy="fair")], backend="trace",
                   model_version="1.0.0")
        merged = merge_runsets([a, b])
        assert [r.policy for r in merged.records] == ["shared", "fair"]
        assert merged.backend == "analytical|trace"
        assert merged.model_version == "1.0.0"

    def test_load_runset_dir_round_trips_all_shards(self, tmp_path):
        save_runset_shard(RunSet(records=[_record(policy="shared")]),
                          str(tmp_path))
        save_runset_shard(RunSet(records=[_record(policy="fair")]),
                          str(tmp_path))
        assert len(list_runset_shards(str(tmp_path))) == 2
        merged = load_runset_dir(str(tmp_path))
        assert {r.policy for r in merged.records} == {"shared", "fair"}

    def test_load_runset_dir_missing_directory(self, tmp_path):
        with pytest.raises(ValidationError, match="no run-set directory"):
            load_runset_dir(str(tmp_path / "absent"))

    def test_load_runset_dir_empty_directory(self, tmp_path):
        with pytest.raises(ValidationError, match="no run-set shards"):
            load_runset_dir(str(tmp_path))

    def test_corrupt_shard_error_names_the_file(self, tmp_path):
        save_runset_shard(RunSet(records=[_record()]), str(tmp_path))
        bad = tmp_path / "shard-1-999999.json"
        bad.write_text("{nope")
        with pytest.raises(ValidationError, match="shard-1-999999.json"):
            load_runset_dir(str(tmp_path))
