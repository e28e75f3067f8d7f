"""Default constructions build the kernel cache level, and a default
prefetchers-off ``run_packed`` replays through the epoch driver."""

import pytest

from repro.cache.coloring import ColoredLLC
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.kernel import KernelCacheLevel
from repro.cache.llc import PartitionedLLC, WayMask
from repro.sim.trace_engine import TraceEngine, TraceWorkload
from repro.util.units import MB
from repro.workloads.trace import StreamingTrace, ZipfTrace


def levels_of(hierarchy):
    return list(hierarchy.l1) + list(hierarchy.l2) + [hierarchy.llc.storage]


def test_default_hierarchies_hold_only_kernel_levels():
    for hierarchy in (CacheHierarchy(), TraceEngine().hierarchy):
        assert {type(level) for level in levels_of(hierarchy)} == {
            KernelCacheLevel
        }


def test_default_llcs_store_in_a_kernel_level():
    assert type(PartitionedLLC().storage) is KernelCacheLevel
    assert type(ColoredLLC().storage) is KernelCacheLevel


@pytest.fixture
def private_pack_cache(monkeypatch, tmp_path):
    from repro.workloads import tracepack

    monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


def test_default_run_packed_takes_the_epoch_driver(
    monkeypatch, private_pack_cache
):
    workloads = [
        TraceWorkload(
            "fg", lambda: ZipfTrace(6_000, 2 * MB, alpha=0.9, tid=0, seed=3),
            tid=0, think_cycles=4,
        ),
        TraceWorkload(
            "bg", lambda: StreamingTrace(4_000, 16 * MB, tid=2),
            tid=2, think_cycles=1,
        ),
    ]

    def partitioned_engine():
        engine = TraceEngine(prefetchers_on=False)
        engine.hierarchy.set_way_mask(0, WayMask.contiguous(8, 0))
        engine.hierarchy.set_way_mask(1, WayMask.contiguous(4, 8))
        return engine

    expected = partitioned_engine().run(workloads, total_accesses=9_000)
    engine = partitioned_engine()

    def fallback(*args, **kwargs):
        raise AssertionError("run_packed fell back to run")

    monkeypatch.setattr(engine, "run", fallback)
    assert engine.run_packed(workloads, total_accesses=9_000) == expected
