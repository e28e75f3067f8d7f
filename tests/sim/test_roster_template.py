"""The roster drivers' shared cold template and the per-build hoists.

Every roster cell starts from one process-wide cold template hierarchy
and its bank snapshot. These tests pin that the template stays cold
after fixed-mask and mask-changing dynamic rosters, that a batch build
checks and snapshots each template core once rather than once per cell,
and that the template engine is built at most once per process.
"""

import pytest

from repro.cache import kernel
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.llc import WayMask
from repro.core.dynamic import ControllerAction
from repro.sim import trace_engine
from repro.sim.trace_engine import (
    DynamicRosterCell,
    RosterCell,
    TraceEngine,
    TraceWorkload,
    run_dynamic_roster,
    run_packed_roster,
)
from repro.util.units import MB
from repro.workloads.trace import make_trace
from repro.workloads.tracepack import get_pack

from .._native import native_available


def _pair(i, length=3_000):
    return [
        TraceWorkload(
            "fg",
            lambda n=length: make_trace("chase", n, (1 + i) * MB, tid=0,
                                        seed=7 + i),
            tid=0,
            think_cycles=6,
        ),
        TraceWorkload(
            "bg",
            lambda n=length: make_trace("stream", n, 4 * MB, tid=4),
            tid=4,
            think_cycles=2,
        ),
    ]


def _fixed_cells():
    return [
        RosterCell(
            workloads=_pair(i),
            masks={0: WayMask.contiguous(fg, 0),
                   2: WayMask.contiguous(12 - fg, fg)},
            total_accesses=4_000,
        )
        for i, fg in enumerate((3, 6, 9))
    ]


class _Shrink:
    """Moves the foreground from 11 ways to 3 at its second tick."""

    period_s = 0.1

    def __init__(self):
        self.fg_ways = 11
        self.actions = []
        self._ticks = 0

    def masks(self):
        return {
            "fg": WayMask.contiguous(self.fg_ways, 0),
            "bg": WayMask.contiguous(12 - self.fg_ways, self.fg_ways),
        }

    def on_tick(self, now_s, dt_s, metrics):
        self._ticks += 1
        if self._ticks != 2:
            return None
        self.fg_ways = 3
        self.actions.append(ControllerAction(
            time_s=now_s, fg_ways=3, reason="shrink",
            mpki=metrics["fg"]["mpki"],
        ))
        return self.masks()


def _dynamic_cells():
    return [
        DynamicRosterCell(
            workloads=_pair(i), controller=_Shrink(),
            epoch_accesses=600, total_accesses=3_000,
        )
        for i in range(3)
    ]


_LEVEL_STATE = ("_tags", "_valid", "_plru", "_stamp", "_sharers",
                "_dirty", "_prefetched", "_touched_pf")


def _state(hierarchy):
    """Every flat array of every level (LRU levels keep stamps, PLRU
    levels tree words), plus the LLC way masks."""
    levels = [hierarchy.llc.storage, *hierarchy.l1, *hierarchy.l2]
    return (
        [{attr: list(getattr(lvl, attr)) for attr in _LEVEL_STATE
          if hasattr(lvl, attr)} for lvl in levels],
        dict(hierarchy.llc._mask_bits),
    )


def test_template_stays_cold_after_rosters():
    run_packed_roster(_fixed_cells(), threads=2)
    results = run_dynamic_roster(_dynamic_cells(), threads=2)
    assert all(r.timeline for r in results)  # masks really changed
    template = trace_engine._cold_template()
    fresh = CacheHierarchy(backend="kernel")
    assert _state(template.hierarchy) == _state(fresh)
    if native_available():
        snapshot = kernel.TemplateBank(fresh).bank
        assert (template.bank == snapshot).all()


def _counting(monkeypatch, name, key):
    calls = {}
    original = getattr(kernel, name)

    def counted(*args):
        k = key(*args)
        calls[k] = calls.get(k, 0) + 1
        return original(*args)

    monkeypatch.setattr(kernel, name, counted)
    return calls


@pytest.mark.parametrize("build", ["batch", "epoch"])
def test_each_template_core_is_checked_and_snapshotted_once(
    monkeypatch, build
):
    h = TraceEngine(prefetchers_on=False, backend="kernel").hierarchy
    llc = h.llc.storage
    packs = [get_pack(w.trace_factory()) for w in _pair(0)]
    cell = {
        "cores": [0, 2],
        "thinks": [6, 2],
        "lines": [p.line for p in packs],
        "sets": [p.set_column(llc.num_sets, "mod") for p in packs],
        "lengths": [len(p.line) for p in packs],
        "repeats": [True, True],
        "stop": 500,
    }
    eligible = _counting(monkeypatch, "_lean_walk_eligible",
                         lambda hierarchy, core: core)
    perm = _counting(monkeypatch, "_l1_perm_state", id)
    builder = {
        "batch": kernel.build_native_batch_replay,
        "epoch": kernel.build_native_epoch_batch_replay,
    }[build]
    builder(h, [dict(cell) for _ in range(6)], threads=2)
    assert eligible and max(eligible.values()) == 1
    assert set(eligible) == {0, 2}
    assert all(count == 1 for count in perm.values())
    assert len(perm) <= h.num_cores


@pytest.mark.skipif(
    not native_available(),
    reason="the sequential fallback builds one engine per cell",
)
def test_template_engine_is_built_once_per_process(monkeypatch):
    monkeypatch.setattr(trace_engine, "_COLD_TEMPLATE", None)
    built = []
    original = TraceEngine.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TraceEngine, "__init__", counted)
    for _ in range(2):
        run_packed_roster(_fixed_cells())
        run_dynamic_roster(_dynamic_cells())
    assert len(built) == 1
