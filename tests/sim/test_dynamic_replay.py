"""The N-domain epoch-resumable replay and trace-driven dynamic runs.

Three implementations must agree bit for bit on any co-run: the
reference ``TraceEngine.run``, the pure-Python epoch driver, and the
native epoch kernel (one-cell ``epochbatch`` rosters over
``multiwalk.c``). On top of that, splitting a run into
epochs — with or without way-mask changes at the boundaries — must be
invisible to the simulated caches (the flush-free resume contract).
"""

import json

import pytest

from repro.cache.kernel import (
    TemplateBank,
    build_native_epoch_batch_replay,
    build_python_epoch_replay,
)
from repro.cache.llc import WayMask
from repro.core.dynamic import DynamicPartitionController, mpki_window
from repro.sim.trace_engine import (
    DynamicRosterCell,
    RosterCell,
    TraceEngine,
    TraceWorkload,
    run_dynamic_roster,
    run_packed_roster,
)
from repro.util.errors import ValidationError
from repro.util.units import MB
from repro.workloads import tracepack

from .._batch import batch_cells
from .._native import native_available, without_native


@pytest.fixture(autouse=True)
def _private_pack_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


_TIDS = (0, 4, 2, 6)
_PARTITIONS = {2: (9, 3), 3: (6, 3, 3), 4: (6, 2, 2, 2)}


def _workloads(n=3, length=5_000, repeats=None, thinks=None):
    from repro.workloads.trace import make_trace

    specs = [
        ("fg", "zipf", (2 * MB,), {"alpha": 0.9, "seed": 7}),
        ("bg", "stream", (8 * MB,), {}),
        ("bg2", "chase", (1 * MB,), {"seed": 3}),
        ("bg3", "stream", (4 * MB,), {}),
    ]
    out = []
    for i in range(n):
        name, kind, positional, kwargs = specs[i]
        tid = _TIDS[i]
        out.append(
            TraceWorkload(
                name,
                # Late-bound default args pin the loop variables.
                lambda k=kind, p=positional, kw=kwargs, t=tid: make_trace(
                    k, length, *p, tid=t, **kw
                ),
                tid=tid,
                think_cycles=thinks[i] if thinks else (6, 2, 4, 2)[i],
                repeat=repeats[i] if repeats else True,
            )
        )
    return out


def _masks(n=3):
    """``{core: WayMask}`` of the n-domain partition."""
    masks = {}
    start = 0
    for i, ways in enumerate(_PARTITIONS[n]):
        masks[_TIDS[i] // 2] = WayMask.contiguous(ways, start)
        start += ways
    return masks


def _engine(n=3):
    engine = TraceEngine(prefetchers_on=False)
    for core, mask in _masks(n).items():
        engine.hierarchy.set_way_mask(core, mask)
    return engine


def _signature(engine, stats):
    hierarchy = engine.hierarchy
    levels = list(hierarchy.l1) + list(hierarchy.l2) + [hierarchy.llc.storage]
    return (
        stats,
        [sorted(level.stats.snapshot().items()) for level in levels],
        [sorted(level.stats.per_domain_accesses.items()) for level in levels],
        [sorted(level.stats.per_domain_misses.items()) for level in levels],
        hierarchy.llc.storage.occupancy_by_way(),
        sorted(hierarchy.llc.storage.resident_lines()),
    )


def _packs(workloads):
    return [tracepack.get_pack(w.trace_factory()) for w in workloads]


def _python_replay(engine, workloads, packs):
    """The pure-Python epoch driver over ``engine``'s hierarchy."""
    h = engine.hierarchy
    return build_python_epoch_replay(
        h,
        [h.core_of_tid(w.tid) for w in workloads],
        [w.think_cycles for w in workloads],
        [p.lines_list() for p in packs],
        [len(p.line) for p in packs],
        [w.repeat for w in workloads],
    )


class _NativeCell:
    """A one-cell native epoch batch starting from ``engine``'s
    hierarchy, driven epoch by epoch through ``set_stop``/``run_active``
    and reallocated through ``set_mask_bits``."""

    def __init__(self, engine, workloads, packs):
        h = engine.hierarchy
        llc = h.llc.storage
        cell = {
            "cores": [h.core_of_tid(w.tid) for w in workloads],
            "thinks": [w.think_cycles for w in workloads],
            "lines": [p.line for p in packs],
            "sets": [p.set_column(llc.num_sets, llc.indexing) for p in packs],
            "lengths": [len(p.line) for p in packs],
            "repeats": [w.repeat for w in workloads],
            "stop": 0,
        }
        self.template = TemplateBank(h)
        self.batch = build_native_epoch_batch_replay(
            self.template, batch_cells(h, [cell]), threads=1,
        )
        assert self.batch is not None

    def run_epoch(self, stop):
        self.batch.set_stop(0, stop)
        self.batch.run_active([0])
        return self.batch.issued_of(0)

    def set_mask(self, slot, mask):
        self.batch.set_mask_bits(0, slot, mask.bits)

    def result(self):
        """``(counts, vtimes)`` in :meth:`PythonEpochReplay.finish`'s
        shape."""
        return self.batch.cell_result(0)

    def state(self):
        """The cell's whole state bank (filled by its first run)."""
        return self.batch._banks[0].tolist()

    def llc_resident(self):
        """Sorted resident LLC lines, read from the cell's bank."""
        layout, _ = self.template.layout()
        bank = self.batch._banks[0]
        tags = bank[layout["llc_tags"]].tolist()
        valid = bank[layout["llc_valid"]].tolist()
        ways = len(tags) // len(valid)
        return sorted(
            tags[s * ways + w]
            for s, bits in enumerate(valid)
            for w in range(ways)
            if bits >> w & 1
        )


def _python_state(engine):
    """``engine``'s hierarchy state in the native bank layout, the
    back-invalidation counters read from its L1 and L2 stats."""
    h = engine.hierarchy
    template = TemplateBank(h)
    bank = template.bank
    layout, _ = template.layout()
    bank[layout["bi"]] = [
        level.stats.back_invalidations for level in (*h.l1, *h.l2)
    ]
    return bank.tolist()


class TestEpochResume:
    """Splitting a replay into epochs must change nothing."""

    def test_python_epoch_split_matches_single_epoch(self):
        workloads = _workloads(3)
        packs = _packs(workloads)
        total = 12_000

        one = _engine(3)
        whole = _python_replay(one, workloads, packs)
        whole.run_epoch(total)
        whole_out = whole.finish()

        many = _engine(3)
        split = _python_replay(many, workloads, packs)
        done = 0
        while done < total:
            done = split.run_epoch(min(done + 777, total))
        split_out = split.finish()

        assert split_out == whole_out
        assert _signature(many, None) == _signature(one, None)

    def test_native_lockstep_with_python_driver(self):
        """Epoch boundaries: issued counts, virtual times, per-domain
        counters, and the resident set agree at every single boundary,
        and the whole cache state at the end."""
        if not native_available():
            pytest.skip("native kernels unavailable")
        workloads = _workloads(3)
        packs = _packs(workloads)

        py_engine = _engine(3)
        py = _python_replay(py_engine, workloads, packs)
        nat = _NativeCell(_engine(3), workloads, packs)

        total, step, done = 10_000, 640, 0
        while done < total:
            target = min(done + step, total)
            py_done = py.run_epoch(target)
            nat_done = nat.run_epoch(target)
            assert nat_done == py_done
            counts, vtimes = nat.result()
            assert list(vtimes) == py.vtimes()
            assert list(counts) == [py.counters(i) for i in range(3)]
            assert nat.llc_resident() == sorted(
                py_engine.hierarchy.llc.storage.resident_lines()
            )
            done = py_done
        assert nat.result() == py.finish()
        assert nat.state() == _python_state(py_engine)

    def test_mask_change_is_flush_free(self):
        """A reallocation at an epoch boundary must not disturb a single
        resident line or any recency state: the replays straddle it and
        still agree with each other in full-state signature."""
        if not native_available():
            pytest.skip("native kernels unavailable")
        workloads = _workloads(3)
        packs = _packs(workloads)

        py_engine = _engine(3)
        py = _python_replay(py_engine, workloads, packs)
        nat = _NativeCell(_engine(3), workloads, packs)

        def py_resident():
            return sorted(py_engine.hierarchy.llc.storage.resident_lines())

        py.run_epoch(6_000)
        nat.run_epoch(6_000)
        resident = nat.llc_resident()
        assert resident == py_resident()
        assert resident  # the straddle is only meaningful with lines in

        # Shrink the foreground (slot 0) 6 -> 3 ways, grow bg2 (slot 2)
        # 3 -> 6.
        h = py_engine.hierarchy
        for slot, tid, mask in ((0, 0, WayMask.contiguous(3, 0)),
                                (2, 2, WayMask.contiguous(6, 6))):
            h.set_way_mask(h.core_of_tid(tid), mask)
            nat.set_mask(slot, mask)

        # The hand-off is lazy: nothing was evicted by the mask change.
        assert nat.llc_resident() == resident
        assert py_resident() == resident

        py.run_epoch(12_000)
        nat.run_epoch(12_000)
        assert nat.result() == py.finish()
        assert nat.state() == _python_state(py_engine)


class TestRestart:
    """A restarted epoch-batch cell is a second run_packed on the same,
    now warm, engine."""

    def test_restarted_cell_equals_warm_then_measure(self):
        if not native_available():
            pytest.skip("native kernels unavailable")
        # fg retires mid-pass, so the restart must revive it.
        workloads = _workloads(3, length=3_000,
                               repeats=[False, True, True])
        packs = _packs(workloads)
        total = 12_000

        engine = _engine(3)
        engine.run_packed(workloads, total_accesses=total)
        measured = engine.run_packed(workloads, total_accesses=total)
        assert measured["fg"].accesses == 3_000

        nat = _NativeCell(_engine(3), workloads, packs)
        nat.run_epoch(total)
        nat.batch.restart(0)
        assert nat.batch.issued_of(0) == 0
        assert nat.run_epoch(total) == total
        stats = TraceEngine._packed_stats(workloads, *nat.result(), packs)
        assert stats == measured
        assert nat.state() == _python_state(engine)


class TestTieBreaking:
    """Equal virtual times must break by domain slot in every backend."""

    def _identical_workloads(self):
        # Same trace shape, same think time on every domain: the virtual
        # times tie at zero and stay in lockstep, so every scheduling
        # decision is decided by the tie-break alone.
        return _workloads(3, length=3_000, thinks=[4, 4, 4])

    def test_heap_python_native_agree(self):
        if not native_available():
            pytest.skip("native kernels unavailable")
        workloads = self._identical_workloads()
        packs = _packs(workloads)
        total = 9_000

        heap = _engine(3)
        heap_sig = _signature(
            heap, heap.run(workloads, total_accesses=total)
        )
        engine = _engine(3)
        assert _signature(
            engine,
            engine.run_packed(workloads, total_accesses=total),
        ) == heap_sig
        roster = run_packed_roster([
            RosterCell(workloads, masks=_masks(3), total_accesses=total)
        ])
        assert roster == [heap_sig[0]]

        py_engine = _engine(3)
        py = _python_replay(py_engine, workloads, packs)
        nat = _NativeCell(_engine(3), workloads, packs)
        py.run_epoch(total)
        nat.run_epoch(total)
        assert nat.result() == py.finish()
        assert nat.state() == _python_state(py_engine)


class TestRunPackedMultiwalk:
    """N>=3 co-runs: ``run_packed`` equals ``run`` in full state, and a
    one-cell roster (native when available) equals both."""

    def _assert_identical(self, workloads, n, total):
        engine = _engine(n)
        stats = engine.run_packed(workloads, total_accesses=total)
        heap = _engine(n)
        assert _signature(engine, stats) == _signature(
            heap, heap.run(workloads, total_accesses=total)
        )
        cell = RosterCell(workloads, masks=_masks(n), total_accesses=total)
        assert run_packed_roster([cell]) == [stats]
        assert without_native(lambda: run_packed_roster([cell])) == [stats]
        return stats

    def test_four_domain_co_run_identical(self):
        self._assert_identical(_workloads(4), 4, 16_000)

    def test_nonrepeating_domains_retire_identically(self):
        workloads = _workloads(3, length=1_500,
                               repeats=[False, True, False])
        stats = self._assert_identical(workloads, 3, 12_000)
        assert stats["fg"].accesses == 1_500
        assert stats["bg2"].accesses == 1_500


class TestRunDynamic:
    """Trace-driven dynamic partitioning: controller in the epoch loop."""

    def _workloads(self, length=6_000):
        from repro.workloads.trace import make_trace

        return [
            TraceWorkload(
                "fg",
                lambda: make_trace("chase", length, 8 * MB, tid=0, seed=7),
                tid=0,
                think_cycles=6,
            ),
            TraceWorkload(
                "bg",
                lambda: make_trace("stream", length, 8 * MB, tid=4),
                tid=4,
                think_cycles=2,
            ),
        ]

    def _run(self):
        engine = TraceEngine(prefetchers_on=False)
        controller = DynamicPartitionController("fg", "bg")
        result = engine.run_dynamic(
            self._workloads(),
            controller,
            epoch_accesses=3_000,
            total_accesses=36_000,
        )
        return result, _signature(engine, result.stats)

    def _roster(self):
        cell = DynamicRosterCell(
            self._workloads(),
            DynamicPartitionController("fg", "bg"),
            epoch_accesses=3_000,
            total_accesses=36_000,
        )
        return run_dynamic_roster([cell])[0]

    def test_timeline_byte_equal_across_backends(self):
        """A one-cell dynamic roster, native and (REPRO_NATIVE=0) pure
        Python, equals the run_dynamic reference."""
        python_result, _ = self._run()
        assert python_result.native is False
        assert python_result.timeline  # the controller actually acted
        native_result = self._roster()
        assert native_result.native is native_available()
        for result in (native_result, without_native(self._roster)):
            assert json.dumps(result.timeline, sort_keys=True) == \
                json.dumps(python_result.timeline, sort_keys=True)
            assert result.actions == python_result.actions
            assert result.epochs == python_result.epochs
            assert result.stats == python_result.stats

    def test_timeline_entries_are_complete_partitions(self):
        result, _ = self._run()
        assert result.epochs == 12
        for entry in result.timeline:
            assert set(entry) == {
                "epoch", "time_s", "fg_ways", "reason", "mpki", "masks",
            }
            assert set(entry["masks"]) == {"fg", "bg"}
            fg_bits, bg_bits = entry["masks"]["fg"], entry["masks"]["bg"]
            assert fg_bits & bg_bits == 0
            assert fg_bits | bg_bits == (1 << 12) - 1
            assert bin(fg_bits).count("1") == entry["fg_ways"]

    def test_rejects_epoch_smaller_than_one(self):
        engine = TraceEngine(prefetchers_on=False)
        with pytest.raises(ValidationError):
            engine.run_dynamic(
                self._workloads(),
                DynamicPartitionController("fg", "bg"),
                epoch_accesses=0,
            )

    def test_rejects_mismatched_controller_names(self):
        engine = TraceEngine(prefetchers_on=False)
        with pytest.raises(ValidationError):
            engine.run_dynamic(
                self._workloads(),
                DynamicPartitionController("fg", "other"),
                epoch_accesses=3_000,
                total_accesses=6_000,
            )

    def test_rejects_prefetching_engine(self):
        engine = TraceEngine(prefetchers_on=True)
        with pytest.raises(ValidationError):
            engine.run_dynamic(
                self._workloads(),
                DynamicPartitionController("fg", "bg"),
            )


class TestMpkiWindow:
    def test_scales_misses_per_kilo_access(self):
        assert mpki_window(5, 1000) == 5.0
        assert mpki_window(0, 1000) == 0.0

    def test_zero_accesses_is_zero(self):
        assert mpki_window(3, 0) == 0.0
