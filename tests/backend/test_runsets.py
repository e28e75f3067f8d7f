"""Run records across backends: one schema, comparable where meaningful."""

import dataclasses
import os

import pytest

from repro.analysis.compare import diff_runsets
from repro.analysis.experiments import trace_group_spec
from repro.analysis.store import (
    RunRecord,
    RunSet,
    load_runset,
    record_from_outcome,
    runset_from_outcomes,
    save_runset,
)
from repro.backend import (
    AnalyticalBackend,
    GroupMeasurement,
    GroupSplit,
    TenantSet,
    TraceBackend,
)
from repro.core.policies import PolicyOutcome, run_policy

ACCESSES = 12_000


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


@pytest.fixture(scope="module")
def analytical_set(machine):
    backend = AnalyticalBackend(machine)
    spec = AnalyticalBackend.group_spec(["fop", "batik"])
    outcomes = [
        run_policy(backend, spec, policy) for policy in ("shared", "fair")
    ]
    return runset_from_outcomes(outcomes, capabilities=backend.capabilities())


@pytest.fixture(scope="module")
def trace_set():
    backend = TraceBackend(total_accesses=ACCESSES)
    # Same (policy, fg, bg) keys as the analytical set, so the two run
    # sets pair up record-for-record in a diff.
    traces = trace_group_spec(
        ["zipf", "stream"], accesses=ACCESSES,
        footprint_mb=1.0, bg_footprint_mb=2.0,
    )
    spec = TenantSet(tenants=[
        dataclasses.replace(workload, name=name)
        for workload, name in zip(traces.tenants, ("fop", "batik"))
    ])
    outcomes = [
        run_policy(backend, spec, policy) for policy in ("shared", "fair")
    ]
    return runset_from_outcomes(outcomes, capabilities=backend.capabilities())


class TestRunsetShape:
    def test_units_come_from_capabilities(self, analytical_set, trace_set):
        assert analytical_set.backend == "analytical"
        assert trace_set.backend == "trace"
        for record in analytical_set.records:
            assert record.units == {"fg_cost": "s", "bg_rate": "instr/s"}
        for record in trace_set.records:
            assert record.units == {
                "fg_cost": "cycles/access", "bg_rate": "accesses/kcycle",
            }

    def test_keys_match_across_backends(self, analytical_set, trace_set):
        assert set(analytical_set.by_key()) == set(trace_set.by_key()) == {
            ("shared", "fop", "batik"),
            ("fair", "fop", "batik"),
        }

    def test_dynamic_provenance_counts_controller_actions(self):
        m = GroupMeasurement(
            backend="trace", names=("fg", "bg"),
            split=GroupSplit.disjoint(9, 12), costs=(1.5, 2.0),
            rates=(10.0, 40.0), raw=object(), extra={"actions": [1, 2, 3]},
        )
        outcome = PolicyOutcome(policy="dynamic", measurement=m)
        record = record_from_outcome(outcome)
        assert record.provenance["dynamic_actions"] == 3
        assert record.metrics["fg_cost"] == 1.5

    def test_sweep_provenance_counts_points(self, machine):
        backend = AnalyticalBackend(machine)
        spec = AnalyticalBackend.group_spec(["fop", "batik"])
        outcome = run_policy(backend, spec, "biased")
        record = record_from_outcome(outcome)
        assert record.provenance["sweep_points"] == 11


class TestCrossBackendDiff:
    def test_same_set_agrees_on_everything(self, analytical_set, tmp_path):
        path = tmp_path / "runs.json"
        assert save_runset(analytical_set, path) == 2
        moved, checked, unmatched = diff_runsets(path, path)
        assert (moved, unmatched) == ([], [])
        assert checked == 8  # 2 records x 4 metrics, units all match

    def test_trace_vs_analytical_compares_only_allocations(
        self, analytical_set, trace_set, tmp_path
    ):
        before = tmp_path / "analytical.json"
        after = tmp_path / "trace.json"
        save_runset(analytical_set, before)
        save_runset(trace_set, after)
        moved, checked, unmatched = diff_runsets(before, after)
        assert unmatched == []
        # fg_cost/bg_rate units differ (seconds vs cycles), so only the
        # chosen splits are comparable — and they agree by construction
        # (shared is 12/12 and fair is 6/6 on both substrates).
        assert checked == 4
        assert moved == []

    def test_extra_records_are_reported_unmatched(self, analytical_set):
        extra = RunRecord(
            policy="biased", backend="analytical", fg="fop", bg="batik",
            fg_ways=9, bg_ways=3,
            metrics={"fg_cost": 1.0, "bg_rate": 2.0},
        )
        bigger = RunSet(
            records=list(analytical_set.records) + [extra],
            backend="analytical",
        )
        _, _, unmatched = diff_runsets(analytical_set, bigger)
        assert unmatched == [("biased", "fop", "batik")]

    def test_moved_metrics_are_flagged(self, analytical_set):
        record = analytical_set.records[0]
        bumped = RunRecord(
            policy=record.policy, backend=record.backend,
            fg=record.fg, bg=record.bg,
            fg_ways=record.fg_ways, bg_ways=record.bg_ways,
            metrics={**record.metrics, "fg_cost": record.metrics["fg_cost"] * 1.5},
            units=dict(record.units),
        )
        after = RunSet(records=[bumped], backend="analytical")
        before = RunSet(records=[record], backend="analytical")
        moved, _, _ = diff_runsets(before, after, tolerance=0.02)
        assert [delta.metric for delta in moved] == ["fg_cost"]

    def test_group_records_pair_by_the_full_tenant_tuple(self, tmp_path):
        def group_set(fg_cost):
            record = RunRecord(
                policy="cluster", backend="trace",
                fg="zipf", bg="stream+chase",
                fg_ways=9, bg_ways=2,
                metrics={"fg_cost": fg_cost, "bg_rate": 40.0,
                         "fg_ways": 9.0, "bg_ways": 2.0},
                units={"fg_cost": "cycles/access",
                       "bg_rate": "accesses/kcycle"},
                tenants=("zipf", "stream", "chase"),
            )
            return RunSet(records=[record], backend="trace")

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        save_runset(group_set(2.0), before)
        save_runset(group_set(2.0), after)
        moved, checked, unmatched = diff_runsets(before, after)
        assert (moved, unmatched) == ([], [])
        assert checked == 4  # splits + both metrics, units match

        save_runset(group_set(3.0), after)
        moved, _, _ = diff_runsets(before, after, tolerance=0.01)
        # The reported stage names the whole roster, not just fg/bg.
        assert [(d.stage, d.metric) for d in moved] == [
            ("cluster:zipf+stream+chase", "fg_cost")
        ]

    def test_group_and_pair_records_never_cross_match(self, tmp_path):
        group = RunRecord(
            policy="fair", backend="trace", fg="zipf", bg="stream+chase",
            fg_ways=4, bg_ways=4,
            metrics={"fg_cost": 2.0, "bg_rate": 30.0},
            tenants=("zipf", "stream", "chase"),
        )
        pair = RunRecord(
            policy="fair", backend="trace", fg="zipf", bg="stream+chase",
            fg_ways=6, bg_ways=6,
            metrics={"fg_cost": 9.0, "bg_rate": 1.0},
        )
        before = tmp_path / "group.json"
        after = tmp_path / "pair.json"
        save_runset(RunSet(records=[group], backend="trace"), before)
        save_runset(RunSet(records=[pair], backend="trace"), after)
        moved, checked, unmatched = diff_runsets(before, after)
        # Nothing pairs up: both keys are unmatched, no metric is
        # compared, and the differing splits never get flagged.
        assert checked == 0 and moved == []
        assert unmatched == [
            ("fair", "zipf", "stream", "chase"),
            ("fair", "zipf", "stream+chase"),
        ]

    def test_diff_accepts_multi_shard_store_directories(
        self, analytical_set, tmp_path
    ):
        from repro.analysis.store import save_runset_shard

        store = tmp_path / "store"
        for record in analytical_set.records:
            save_runset_shard(
                RunSet(records=[record], backend="analytical"), str(store)
            )
        single = tmp_path / "runs.json"
        save_runset(analytical_set, single)
        moved, checked, unmatched = diff_runsets(str(store), single)
        assert (moved, unmatched) == ([], [])
        assert checked == 8
