"""Tests of the benchmark itself, each workload at about 1/50 scale.

They drive ``run.main`` with its internal ``scale`` and ``work_dir``
arguments, so samples go through the same processes, prepare step and
checks as a full-scale run.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import report
import run
import spans
import workloads

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _main(argv, work):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, scale=SCALE, work_dir=work)
    return code, out.getvalue()


@pytest.fixture(scope="session")
def traced(tmp_path_factory):
    """Every workload, two samples each plus one traced sample."""
    work = tmp_path_factory.mktemp("bench")
    code, stdout = _main(["--repeats", "2", "--trace"], work)
    results = json.loads((work / "out" / "results.json").read_text())
    return code, stdout, results, work


def test_benchmark_json_schema():
    spec = run._spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    names = []
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_list_matches_what_a_traced_sample_reports():
    counters = dict.fromkeys(report.COUNT_KEYS + (
        "pack_hits", "pack_misses", "pack_compiled_accesses", "memo_hits",
        "memo_misses", "occupancy_iterations",
    ), 0)
    produced = set(spans.layer_metrics([], counters)) | {
        "analysis.store_bytes", "bench.verified_cells",  # added by the sample
        "bench.trace_overhead", "sim_accesses_per_s",  # added by run.py
    }
    assert produced == {m["name"] for m in run._spec()["per_layer"]}


def test_seed_changes_cell_ids_not_counts():
    from repro.campaign import expand_manifest, manifest_from_dict

    for workload in workloads.WORKLOADS:
        for scale in (SCALE, 1.0):
            one, two = (
                expand_manifest(manifest_from_dict(workloads.manifest(workload, seed, scale)))
                for seed in (1, 2)
            )
            assert len(one) == len(two), workload
            assert {c.cell_id for c in one} != {c.cell_id for c in two}, workload


def test_prepare_key_follows_the_program_source(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    (package / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    (package / "store.py").write_text("VERSION = 1\n")
    before = run.source_digest()
    (package / "__pycache__" / "store.cpython.pyc").write_bytes(b"\0")
    assert run.source_digest() == before
    (package / "store.py").write_text("VERSION = 2\n")
    assert run.source_digest() != before


def test_self_times_nested_and_back_to_back():
    def span(i, parent, start, end):
        return {"id": i, "parent": parent, "name": f"s{i}", "start": start, "end": end}

    trace = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),  # nested child ...
        span(2, 1, 1.5, 2.5),  # ... with its own child
        span(3, 0, 3.0, 5.0),  # back-to-back children
        span(4, 0, 5.0, 6.0),
    ]
    own = spans.self_times(trace)
    assert own == pytest.approx({0: 5.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)

    overlapping = [  # siblings covering [7, 8.5] count once
        span(0, None, 0.0, 10.0), span(1, 0, 7.0, 8.0), span(2, 0, 7.5, 8.5),
    ]
    assert spans.self_times(overlapping)[0] == pytest.approx(8.5)


def test_tracer_patches_where_callers_look_and_restores():
    import repro.campaign.summary as summary
    import repro.workloads.tracepack as tracepack
    from repro.analysis import store

    original = store.load_runset_dir, tracepack.get_pack
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        # Bound at import time in campaign.summary, and on its definer.
        assert summary.load_runset_dir is store.load_runset_dir
        assert store.load_runset_dir is not original[0]
        assert tracepack.get_pack is not original[1]
    finally:
        tracer.restore()
    assert (store.load_runset_dir, tracepack.get_pack) == original
    assert summary.load_runset_dir is original[0]


def test_every_end_to_end_metric_printed_with_unit(traced):
    code, stdout, results, _ = traced
    assert code == 0, stdout
    spec = run._spec()
    for workload in workloads.WORKLOADS:
        for metric in spec["end_to_end"]:
            assert re.search(
                rf"^{workload} {metric['name']} \S+ {re.escape(metric['unit'])} "
                rf"\(q1 \S+, q3 \S+, n=\d+\)$",
                stdout, re.M,
            ), (workload, metric["name"])
        assert re.search(rf"^{workload} failed_ratio 0 failed/attempted", stdout, re.M)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k.split(".", 1)[1] for k in last["metrics"]} == {
        m["name"] for m in spec["per_layer"]
    }


def test_traced_run_writes_spans_and_layers_add_up(traced):
    _, _, results, work = traced
    wanted = {m["name"] for m in run._spec()["per_layer"]}
    for workload, result in results["workloads"].items():
        assert set(result["layers"]) == wanted
        lines = (work / "out" / f"{workload}.spans.jsonl").read_text().splitlines()
        trace = [json.loads(line) for line in lines]
        assert {s["run"] for s in trace} == {result["run_id"]}
        assert all({"name", "start", "end", "parent", "id"} <= set(s) for s in trace)
        own = spans.self_times(trace)
        wall = result["layers"]["bench.traced_wall_s"]
        assert sum(own.values()) == pytest.approx(wall, rel=0.01)
        assert result["layers"]["bench.verified_cells"] >= 1


def test_counters_repeat_exactly_across_samples(traced):
    _, _, results, _ = traced
    for workload, result in results["workloads"].items():
        first, *rest = result["samples"]
        assert rest, workload
        for sample in rest:
            assert sample["counters"] == first["counters"], workload
        assert result["checks"] == []


def test_altered_record_in_non_last_geometry_counts_as_failed(traced, tmp_path):
    from repro.analysis.compare import diff_runsets

    _, _, _, work = traced
    shutil.copytree(work / ".cache", tmp_path / ".cache")
    stores = tmp_path / ".cache" / "stores" / f"{run.source_digest()}-seed1-x{SCALE:g}"
    manifest = workloads.manifest("store-readback", 1, SCALE)
    first_seed = manifest["geometries"][0]["seed"]
    assert len(manifest["geometries"]) > 1
    shard = sorted((stores / "threads2").glob("*.json"))[0]
    payload = json.loads(shard.read_text())
    record = next(
        r for r in payload["records"]
        if r["provenance"]["geometry"]["seed"] == first_seed
    )
    record["metrics"]["fg_cost"] *= 1.5
    shard.write_text(json.dumps(payload))

    moved, _, unmatched = diff_runsets(
        str(stores / "threads1"), str(stores / "threads2"), tolerance=0.0
    )
    assert moved == [] and unmatched == []  # keyed by (policy, fg, bg): missed

    code, stdout = _main(["--workload", "store-readback", "--repeats", "1"], tmp_path)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert code == 1
    assert not last["correct"] and last["failed"] >= 1


def test_against_flags_worse_metrics_and_moved_counts():
    def stats(*values):
        return report.summarize(values)

    end_to_end = [{"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.1}]

    def results(values, accesses):
        return {"seed": 1, "scale": 1.0, "workloads": {"w": {
            "metrics": {"cells_per_s": stats(*values)},
            "failed_ratio": 0.0,
            "counters": {"trace_accesses": accesses},
        }}}

    parent = results([100, 101, 102, 103], 5)
    assert report.compare(parent, results([100, 101, 102, 103], 5), end_to_end) == (
        [
            "w cells_per_s parent 101.5 [100.25, 102.75] change 101.5 "
            "[100.25, 102.75] cells/s: within bound (bound 10%)",
            "w failed_ratio parent 0 change 0: no increase",
        ],
        False,
    )
    rows, flagged = report.compare(parent, results([80, 81, 82, 83], 6), end_to_end)
    assert flagged and "worse" in rows[0] and "COUNT MISMATCH" in rows[-1]
    rows, _ = report.compare(parent, results([60, 100, 140, 180], 5), end_to_end)
    assert "unresolved" in rows[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        ".cache", "out", "__pycache__"
    ))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace-fixed-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
