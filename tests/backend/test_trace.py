"""The trace backend: policies over address-level replay.

The same pack cache is shared module-wide so each synthetic trace
compiles once; every run here replays ~20k accesses.
"""

import os

import pytest

from repro.analysis.experiments import trace_group_spec, verify_trace_group_replay
from repro.backend import GroupSplit, TraceBackend
from repro.core.policies import choose_biased_split, policy_biased, run_policy
from repro.cache.llc import WayMask
from repro.perf import engine_counters as ec
from repro.sim.trace_engine import TraceEngine
from repro.util.errors import ValidationError

from .._native import native_available

ACCESSES = 20_000


def _one_batch_call(measure):
    """``measure()``, asserting it made exactly one batch-kernel call
    (none without the native kernels) and no epoch-batch call."""
    snapshot = ec.engine_counters().snapshot()
    measured = measure()
    delta = ec.engine_counters().delta(snapshot)
    assert delta.get(ec.BATCH_CALLS, 0) == int(native_available())
    assert delta.get(ec.DYNBATCH_CALLS, 0) == 0
    return measured


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
def backend():
    return TraceBackend(total_accesses=ACCESSES)


@pytest.fixture(scope="module")
def spec():
    return trace_group_spec(
        ["zipf", "stream"], accesses=ACCESSES,
        footprint_mb=1.0, bg_footprint_mb=2.0, seed=3,
    )


class TestCapabilities:
    def test_reports_the_trace_engine(self, backend):
        caps = backend.capabilities()
        assert caps.name == "trace"
        assert caps.llc_ways == 12
        assert caps.fg_cost_unit == "cycles/access"
        assert caps.bg_rate_unit == "accesses/kcycle"
        assert caps.supports_dynamic

    def test_zero_accesses_rejected(self):
        with pytest.raises(ValidationError):
            TraceBackend(total_accesses=0)


class TestCoRun:
    def test_replay_is_deterministic(self, backend, spec):
        first = backend.co_run(spec, GroupSplit.pair(9, 3, 12))
        again = backend.co_run(spec, GroupSplit.pair(9, 3, 12))
        assert first.fg_cost == again.fg_cost
        assert first.bg_rate == again.bg_rate

    def test_raw_carries_per_domain_stats(self, backend, spec):
        m = backend.co_run(spec, GroupSplit.fair(2, 12))
        assert set(m.raw) == {spec.names[0], spec.names[1]}
        assert m.fg_cost == m.raw[spec.names[0]].avg_latency

    def test_policies_agree_with_direct_mask_replay(self, backend, spec):
        # shared, fair and biased, re-run with hand-built way masks:
        # both tenants' costs and rates match exactly.
        checked = sum(
            verify_trace_group_replay(
                backend, spec, run_policy(backend, spec, policy)
            )
            for policy in ("shared", "fair", "biased")
        )
        assert checked == 12

    @pytest.mark.parametrize("split", [
        GroupSplit.shared(2, 12), GroupSplit.fair(2, 12), GroupSplit.disjoint(4, 12),
    ], ids=["shared", "fair", "disjoint"])
    def test_co_run_is_one_batch_call_equal_to_run_packed(
        self, backend, spec, split
    ):
        measured = _one_batch_call(lambda: backend.co_run(spec, split))
        engine = TraceEngine(prefetchers_on=False)
        h = engine.hierarchy
        fg_ways, bg_ways = split.way_counts
        h.set_way_mask(spec.tenants[0].tid // 2, WayMask.contiguous(fg_ways, 0))
        h.set_way_mask(
            spec.tenants[1].tid // 2,
            WayMask.contiguous(bg_ways, 12 - bg_ways),
        )
        assert measured.raw == engine.run_packed(
            spec.tenants, total_accesses=ACCESSES
        )

    def test_solo_is_one_batch_call_equal_to_run_packed(self, backend, spec):
        measured = _one_batch_call(lambda: backend.solo(spec.tenants[0]))
        engine = TraceEngine(prefetchers_on=False)
        assert measured.raw == engine.run_packed(
            spec.tenants[:1], total_accesses=ACCESSES
        )


class TestProfiledSweep:
    """The biased policy over a trace pair's sweep, whose entries are
    co-runs replayed at every split."""

    def test_biased_split_matches_the_manual_rule(self, backend, spec):
        sweep = backend.sweep(spec)
        best = min(m.fg_cost for _, m in sweep)
        candidates = [
            (w, m) for w, m in sweep if m.fg_cost <= best * 1.005
        ]
        manual = max(candidates, key=lambda item: (item[1].bg_rate, -item[0]))
        outcome = policy_biased(backend, spec)
        assert outcome.fg_ways == manual[0]
        assert outcome.fg_ways + outcome.bg_ways == 12

    def test_biased_re_measures_its_chosen_split(self, backend, spec):
        outcome = policy_biased(backend, spec)
        # The outcome carries a replayed co-run at the chosen split,
        # equal to measuring that split on its own.
        assert outcome.measurement.raw is not None
        direct = backend.co_run(
            spec, GroupSplit.disjoint(outcome.fg_ways, 12)
        )
        assert outcome.fg_cost == direct.fg_cost
        assert outcome.bg_rate == direct.bg_rate

    def test_biased_choice_is_order_independent(self, backend, spec):
        sweep = backend.sweep(spec)
        pick = choose_biased_split(sweep)
        assert choose_biased_split(list(reversed(sweep))) == pick
        assert choose_biased_split(sweep[1::2] + sweep[::2]) == pick


class TestDynamic:
    def test_epoch_replay_through_the_policy_layer(self, spec):
        backend = TraceBackend(
            total_accesses=ACCESSES, epoch_accesses=4_000,
        )
        outcome = run_policy(backend, spec, "dynamic")
        assert outcome.policy == "dynamic"
        assert outcome.backend == "trace"
        assert outcome.fg_ways + outcome.bg_ways == 12
        extra = outcome.measurement.extra
        assert extra["epochs"] == ACCESSES // 4_000
        assert extra["controller"].fg_name == spec.names[0]
        assert set(outcome.pair) == {spec.names[0], spec.names[1]}

    def test_dispatch_by_name(self, backend, spec):
        outcome = run_policy(backend, spec, "shared")
        assert outcome.fg_ways == outcome.bg_ways == 12
