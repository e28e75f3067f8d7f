"""The address-level co-execution engine."""

import pytest

from repro.cache.block import LINE_SIZE, MemoryAccess
from repro.cache.llc import WayMask
from repro.sim.trace_engine import (
    RosterCell,
    TraceEngine,
    TraceWorkload,
    measure_isolation,
    run_packed_roster,
)
from repro.util.errors import ValidationError
from repro.util.units import KB, MB
from repro.workloads.trace import (
    PointerChaseTrace,
    StreamingTrace,
    ZipfTrace,
    _TraceBase,
)

from .._native import native_available, without_native


def chase(tid=0, ws=2 * MB, length=20_000):
    return TraceWorkload(
        name=f"chase{tid}",
        trace_factory=lambda: PointerChaseTrace(length, ws, tid=tid, seed=5),
        tid=tid,
        think_cycles=4,
    )


def stream(tid=2, length=20_000):
    return TraceWorkload(
        name=f"stream{tid}",
        trace_factory=lambda: StreamingTrace(length, 32 * MB, tid=tid),
        tid=tid,
        think_cycles=1,
    )


class TestSoloRuns:
    def test_stats_accumulate(self):
        engine = TraceEngine(prefetchers_on=False)
        stats = engine.run([chase()], total_accesses=5000)["chase0"]
        assert stats.accesses == 5000
        assert stats.cycles > 0
        assert sum(stats.hits_by_level.values()) == 5000

    def test_small_working_set_hits_cache(self):
        engine = TraceEngine(prefetchers_on=False)
        small = TraceWorkload(
            "small",
            lambda: PointerChaseTrace(20_000, 16 * KB, tid=0, seed=3),
            tid=0,
        )
        stats = engine.run([small], total_accesses=20_000)["small"]
        assert stats.avg_latency < 10  # mostly L1 after warm-up

    def test_huge_working_set_misses(self):
        engine = TraceEngine(prefetchers_on=False)
        big = TraceWorkload(
            "big",
            lambda: PointerChaseTrace(20_000, 64 * MB, tid=0, seed=3),
            tid=0,
        )
        stats = engine.run([big], total_accesses=20_000)["big"]
        assert stats.avg_latency > 100  # mostly DRAM

    def test_nonrepeating_trace_retires(self):
        engine = TraceEngine(prefetchers_on=False)
        short = TraceWorkload(
            "short",
            lambda: StreamingTrace(100, 1 * MB, tid=0),
            tid=0,
            repeat=False,
        )
        stats = engine.run([short], total_accesses=10_000)["short"]
        assert stats.accesses == 100


class TestCoRuns:
    def test_both_make_progress(self):
        engine = TraceEngine(prefetchers_on=False)
        stats = engine.run([chase(0), stream(2)], total_accesses=20_000)
        assert stats["chase0"].accesses > 2000
        assert stats["stream2"].accesses > 2000

    def test_virtual_time_interleaving_is_fair(self):
        """Equal think times -> comparable virtual progress."""
        engine = TraceEngine(prefetchers_on=False)
        a = chase(0)
        b = chase(2)
        b.name = "chase2b"
        stats = engine.run([a, b], total_accesses=20_000)
        cycles = [stats[a.name].cycles, stats[b.name].cycles]
        assert max(cycles) / min(cycles) < 1.2

    def test_duplicate_names_rejected(self):
        engine = TraceEngine()
        with pytest.raises(ValidationError):
            engine.run([chase(0), chase(0)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TraceEngine().run([])


class TestIsolationMeasurement:
    def test_native_and_python_paths_agree(self):
        """Three cells of one epoch batch with the native kernels, two
        run_packed passes per scenario without: the same numbers."""
        from repro.perf import engine_counters as ec

        fg = TraceWorkload(
            "fg",
            lambda: ZipfTrace(12_000, 2 * MB, alpha=0.6, tid=0, seed=7),
            tid=0,
            think_cycles=6,
        )
        bg = TraceWorkload(
            "bg", lambda: StreamingTrace(12_000, 32 * MB, tid=4), tid=4,
            think_cycles=0,
        )

        def measure():
            # One way for the foreground: the partition must show.
            return measure_isolation(
                fg, bg, fg_mask=WayMask.contiguous(1, 0),
                bg_mask=WayMask.contiguous(11, 1), total_accesses=20_000,
            )

        snapshot = ec.engine_counters().snapshot()
        native = measure()
        delta = ec.engine_counters().delta(snapshot)
        assert delta.get(ec.DYNBATCH_CALLS, 0) == 2 * native_available()
        assert without_native(measure) == native
        assert (native["partitioned"]["miss_ratio"]
                > native["shared"]["miss_ratio"])

    def test_partitioning_protects_fg_latency(self):
        """The paper's core claim at line granularity: a streaming
        co-runner inflates a cache-resident foreground's latency under
        sharing; a way partition restores it."""
        fg = TraceWorkload(
            "fg",
            lambda: ZipfTrace(80_000, 6 * MB, alpha=0.9, tid=0, seed=7),
            tid=0,
            think_cycles=6,
        )
        bg = TraceWorkload(
            "bg",
            lambda: StreamingTrace(50_000, 32 * MB, tid=4),
            tid=4,
            think_cycles=0,
        )
        out = measure_isolation(
            fg,
            bg,
            fg_mask=WayMask.contiguous(9, 0),
            bg_mask=WayMask.contiguous(3, 9),
            total_accesses=300_000,
        )
        # Sharing lets the stream evict the foreground's hot lines...
        assert out["shared"]["miss_ratio"] > out["alone"]["miss_ratio"] * 3
        assert out["shared"]["avg_latency"] > out["alone"]["avg_latency"] * 1.3
        # ...and the way partition confines the damage.
        assert out["partitioned"]["miss_ratio"] < out["shared"]["miss_ratio"] * 0.5
        assert out["partitioned"]["avg_latency"] < out["shared"]["avg_latency"] * 0.8

    def test_same_core_rejected(self):
        with pytest.raises(ValidationError):
            measure_isolation(chase(0), chase(1))


class _WritingTrace(_TraceBase):
    """A custom trace whose every third access is a store, so its pack
    carries a write column the epoch replay drivers cannot take."""

    def __init__(self, length, working_set_bytes, tid=0):
        super().__init__(length, tid)
        self.working_set_bytes = working_set_bytes

    def __iter__(self):
        lines = self.working_set_bytes // LINE_SIZE
        for i in range(self.length):
            yield MemoryAccess(
                address=0x50_0000 + (i * 7 % lines) * LINE_SIZE,
                is_write=i % 3 == 0,
                pc=0x500,
                tid=self.tid,
            )


# Way splits per domain count, over cores 0, 2, 3, 1 (tids 0, 4, 6, 2).
_SPLITS = {1: (12,), 2: (9, 3), 3: (6, 3, 3), 4: (6, 2, 2, 2)}


class TestRunPacked:
    """run_packed must be bit-identical to run() on every path."""

    @pytest.fixture(autouse=True)
    def _private_pack_cache(self, monkeypatch, tmp_path):
        from repro.workloads import tracepack

        monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))

    @staticmethod
    def _masks(workloads):
        """``{core: WayMask}`` splitting the LLC among ``workloads``."""
        masks = {}
        start = 0
        for w, ways in zip(workloads, _SPLITS[len(workloads)]):
            masks[w.tid // 2] = WayMask.contiguous(ways, start)
            start += ways
        return masks

    @classmethod
    def _engine(cls, workloads, partition=True):
        engine = TraceEngine(prefetchers_on=False)
        if partition:
            for core, mask in cls._masks(workloads).items():
                engine.hierarchy.set_way_mask(core, mask)
        return engine

    @staticmethod
    def _signature(engine, stats):
        hierarchy = engine.hierarchy
        levels = (
            list(hierarchy.l1) + list(hierarchy.l2) + [hierarchy.llc.storage]
        )
        return (
            stats,
            [sorted(level.stats.snapshot().items()) for level in levels],
            [sorted(level.stats.per_domain_accesses.items()) for level in levels],
            [sorted(level.stats.per_domain_misses.items()) for level in levels],
            hierarchy.llc.storage.occupancy_by_way(),
            sorted(hierarchy.llc.storage.resident_lines()),
        )

    def _workloads(self, domains, length=9_000):
        return [
            TraceWorkload(
                "fg",
                lambda: ZipfTrace(length, 2 * MB, alpha=0.9, tid=0, seed=7),
                tid=0,
                think_cycles=6,
            ),
            TraceWorkload(
                "bg",
                lambda: StreamingTrace(length, 8 * MB, tid=4),
                tid=4,
                think_cycles=2,
            ),
            TraceWorkload(
                "extra",
                lambda: PointerChaseTrace(6_000, 1 * MB, tid=6, seed=3),
                tid=6,
                think_cycles=4,
            ),
            TraceWorkload(
                "extra2",
                lambda: StreamingTrace(5_000, 4 * MB, tid=2),
                tid=2,
                think_cycles=1,
                repeat=False,
            ),
        ][:domains]

    def _assert_identical(self, workloads, total_accesses, partition=True):
        engine = self._engine(workloads, partition)
        baseline = self._signature(
            engine, engine.run(workloads, total_accesses=total_accesses)
        )
        engine = self._engine(workloads, partition)
        stats = engine.run_packed(workloads, total_accesses=total_accesses)
        assert self._signature(engine, stats) == baseline
        return stats

    @pytest.mark.parametrize("native_on", [True, False],
                             ids=["native", "python"])
    @pytest.mark.parametrize("domains", [1, 2, 3, 4])
    def test_co_run_identical(self, domains, native_on, monkeypatch):
        """Every domain count replays identically through run(), the
        pure-Python epoch driver of run_packed(), and a one-cell roster:
        the batch kernel, or under REPRO_NATIVE=0 the sequential
        fallback."""
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE", "1" if native_on else "0")
        native.reset()
        try:
            if not native_on:
                assert native.batch_walk_fn() is None
            workloads = self._workloads(domains)
            stats = self._assert_identical(workloads, 18_000)
            cell = RosterCell(
                workloads, masks=self._masks(workloads),
                total_accesses=18_000,
            )
            assert run_packed_roster([cell]) == [stats]
        finally:
            native.reset()

    def test_single_workload_identical(self):
        self._assert_identical(self._workloads(1), 8_000, partition=False)

    def test_writing_pack_falls_back_to_run(self):
        """A pack that carries writes is outside the epoch replay drivers:
        run_packed must hand the co-run to run() and replay no pack."""
        from repro.perf import engine_counters as ec

        workloads = self._workloads(1) + [
            TraceWorkload(
                "writer",
                lambda: _WritingTrace(4_000, 1 * MB, tid=4),
                tid=4,
                think_cycles=3,
            )
        ]
        before = ec.engine_counters().snapshot()
        self._assert_identical(workloads, 12_000)
        delta = ec.engine_counters().delta(before)
        assert delta.get(ec.PACK_REPLAYS, 0) == 0
