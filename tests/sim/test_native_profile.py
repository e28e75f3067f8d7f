"""The profiled co-run behind trace way utility, in the batch kernel.

``way_allocation_sweep`` replays its co-run as one ``profile`` cell of
the batch kernel, whose per-domain UMON stacks and histograms live in
per-cell buffers. These tests pin that pass to the reference (a
``WayProfiler`` attached to ``TraceEngine.run``), that profiling never
perturbs the replay, that a UMON buffer never leaks between the cells
of a threaded batch, that the native path really engages, and that the
pass counts exactly one profiler pass and one packed replay.
"""

import os

import pytest

from repro.backend import TraceBackend
from repro.cache import kernel
from repro.cache.profile import WayProfiler
from repro.perf import engine_counters as ec
from repro.sim import trace_engine
from repro.sim.trace_engine import (
    RosterCell,
    TraceEngine,
    TraceWorkload,
    run_packed_roster,
    way_allocation_sweep,
)
from repro.util.units import MB
from repro.workloads.trace import PointerChaseTrace, StreamingTrace, ZipfTrace
from repro.workloads.tracepack import get_pack

from .._batch import batch_cells, run_cells
from .._native import native_available, without_native

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


def _group(domains, seed=7):
    """``domains`` tenants on distinct cores; the last of four retires
    early (a non-repeating trace)."""
    workloads = [
        TraceWorkload(
            "fg",
            lambda: ZipfTrace(9_000, 2 * MB, alpha=0.9, tid=0, seed=seed),
            tid=0,
            think_cycles=6,
        ),
        TraceWorkload(
            "bg",
            lambda: StreamingTrace(9_000, 8 * MB, tid=4),
            tid=4,
            think_cycles=2,
        ),
        TraceWorkload(
            "chase",
            lambda: PointerChaseTrace(6_000, 1 * MB, tid=6, seed=seed + 1),
            tid=6,
            think_cycles=4,
        ),
        TraceWorkload(
            "short",
            lambda: StreamingTrace(5_000, 4 * MB, tid=2),
            tid=2,
            think_cycles=1,
            repeat=False,
        ),
    ]
    return workloads[:domains]


def _reference(workloads, total_accesses=ACCESSES):
    """A WayProfiler attached to the generator replay of TraceEngine.run."""
    engine = TraceEngine(prefetchers_on=False)
    llc = engine.hierarchy.llc.storage
    profiler = WayProfiler(
        num_sets=llc.num_sets,
        num_ways=llc.num_ways,
        indexing="hash",
        num_domains=engine.hierarchy.num_cores,
    )
    engine.hierarchy.llc_profiler = profiler
    stats = engine.run(workloads, total_accesses=total_accesses)
    return stats, profiler.curves()


def _cell(workloads, stop=ACCESSES, profile=False):
    """One batch-kernel cell over the cold template's geometry."""
    h = trace_engine._cold_template().hierarchy
    llc = h.llc.storage
    packs = [get_pack(w.trace_factory()) for w in workloads]
    return {
        "cores": [h.core_of_tid(w.tid) for w in workloads],
        "thinks": [w.think_cycles for w in workloads],
        "lines": [p.line for p in packs],
        "sets": [
            p.set_column(llc.num_sets, llc.indexing)
            for p in packs
        ],
        "lengths": [len(p.line) for p in packs],
        "repeats": [w.repeat for w in workloads],
        "stop": stop,
        "profile": profile,
    }


def _table(cells):
    return batch_cells(trace_engine._cold_template().hierarchy, cells)


def _needs_native():
    if not native_available():
        pytest.skip("native kernels unavailable (or REPRO_NATIVE=0)")


class TestEqualsReference:
    def test_sweep_with_and_without_packs_agree(self):
        """For pairs and 3-/4-tenant groups, the packed profiled pass
        (a profiling batch-kernel cell, or the Python epoch driver with
        the profiler attached) == a WayProfiler on the generator replay
        of TraceEngine.run."""
        for domains in (2, 3, 4):
            workloads = _group(domains)
            assert way_allocation_sweep(workloads, ACCESSES) == _reference(
                workloads
            ), domains

    @pytest.mark.parametrize("domains", [2, 3, 4])
    def test_profiling_never_perturbs_the_replay(self, domains):
        workloads = _group(domains)
        stats, _ = way_allocation_sweep(workloads, ACCESSES)
        (plain,) = run_packed_roster(
            [RosterCell(workloads=workloads, total_accesses=ACCESSES)]
        )
        assert stats == plain

    def test_curves_cover_every_core(self):
        _, curves = way_allocation_sweep(_group(2), ACCESSES)
        num_cores = TraceEngine().hierarchy.num_cores
        assert sorted(curves) == list(range(num_cores))
        for core in (1, 3):  # idle cores profile nothing
            assert curves[core].accesses == 0
            assert not any(curves[core].histogram)

    def test_shared_core_falls_back_to_the_reference(self):
        # tids 0 and 1 share core 0: the batch builder refuses the cell.
        workloads = [
            TraceWorkload(
                "a", lambda: ZipfTrace(4_000, 2 * MB, tid=0, seed=3), tid=0
            ),
            TraceWorkload(
                "b", lambda: StreamingTrace(4_000, 4 * MB, tid=1), tid=1
            ),
        ]
        assert way_allocation_sweep(workloads, 6_000) == _reference(
            workloads, 6_000
        )


class TestThreadedBatch:
    def test_mixed_batch_matches_cells_built_alone(self):
        """At two threads, profiled cells interleaved with unprofiled ones
        (and with each other) get exactly the histograms they get alone;
        a UMON buffer that aliased a worker bank, or leaked between
        cells, would fail this."""
        _needs_native()
        template = trace_engine._cold_template()
        cells = [
            _cell(_group(2), profile=True),
            _cell(_group(3)),
            _cell(_group(4), profile=True),
            _cell(_group(3, seed=11), profile=True),
            _cell(_group(2, seed=11)),
            _cell(_group(4), profile=True),
        ]
        batch = kernel.build_native_batch_replay(
            template, _table(cells), threads=2
        )
        assert batch is not None
        outcomes = run_cells(batch)
        for r, cell in enumerate(cells):
            alone = kernel.build_native_batch_replay(
                template, _table([cell]), threads=1
            )
            assert run_cells(alone) == [outcomes[r]], r
            if cell.get("profile"):
                assert batch.cell_profile(r) == alone.cell_profile(0), r

    def test_epoch_batch_profile_resumes_across_epochs(self):
        """The epoch kernel keeps a profiling cell's UMON across calls:
        three epochs profile what one one-shot call does."""
        _needs_native()
        template = trace_engine._cold_template()
        shot = kernel.build_native_batch_replay(
            template, _table([_cell(_group(3), profile=True)]), threads=1
        )
        shot.run()
        epochs = kernel.build_native_epoch_batch_replay(
            template, _table([_cell(_group(3), stop=0, profile=True)]),
            threads=1,
        )
        for stop in (4_000, 8_000, ACCESSES):
            epochs.set_stop(0, stop)
            epochs.run_active([0])
        assert epochs.cell_profile(0) == shot.cell_profile(0)


class TestNativePathAndCounters:
    @pytest.fixture()
    def constructed(self, monkeypatch):
        """Counts of PythonEpochReplay and WayProfiler constructions."""
        counts = {"replay": 0, "profiler": 0}

        def counting(cls, key):
            init = cls.__init__

            def wrapped(self, *args, **kwargs):
                counts[key] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", wrapped)

        counting(kernel.PythonEpochReplay, "replay")
        counting(WayProfiler, "profiler")
        return counts

    def test_native_pass_builds_no_python_replay(self, constructed):
        _needs_native()
        workloads = _group(4)
        native = way_allocation_sweep(workloads, ACCESSES)
        utility = TraceBackend(total_accesses=ACCESSES).way_utility(
            _tenant_set(workloads)
        )
        assert constructed == {"replay": 0, "profiler": 0}
        fallback = without_native(
            lambda: way_allocation_sweep(workloads, ACCESSES)
        )
        assert constructed["replay"] == 1
        assert fallback == native
        assert utility == without_native(
            lambda: TraceBackend(total_accesses=ACCESSES).way_utility(
                _tenant_set(workloads)
            )
        )

    @pytest.mark.parametrize("domains", [2, 4])
    def test_one_pass_counts_one_profiled_replay(self, domains):
        workloads = _group(domains)
        counters = ec.engine_counters()
        before = counters.snapshot()
        stats, _ = way_allocation_sweep(workloads, ACCESSES)
        delta = counters.delta(before)
        assert delta[ec.PROFILER_PASSES] == 1
        assert delta[ec.PACK_REPLAYS] == len(workloads)
        assert delta[ec.TRACE_ACCESSES] == sum(
            s.accesses for s in stats.values()
        )
        for event in (ec.BATCH_CALLS, ec.BATCH_CELLS,
                      ec.DYNBATCH_CALLS, ec.DYNBATCH_CELLS):
            assert delta[event] == 0, event


def _tenant_set(workloads):
    from repro.backend import TenantSet

    return TenantSet(tenants=list(workloads))
