"""The N-domain epoch-resumable replay and trace-driven dynamic runs.

Three implementations must agree bit for bit on any co-run: the
reference ``TraceEngine.run``, the pure-Python epoch driver, and the
native epoch kernel (a one-cell ``epochbatch`` roster over
``multiwalk.c``). On top of that, splitting a run into
epochs — with or without way-mask changes at the boundaries — must be
invisible to the simulated caches (the flush-free resume contract).
"""

import json

import pytest

from repro.cache.kernel import (
    build_native_epoch_replay,
    build_python_epoch_replay,
)
from repro.cache.llc import WayMask
from repro.core.dynamic import DynamicPartitionController, mpki_window
from repro.sim.trace_engine import TraceEngine, TraceWorkload
from repro.util.errors import ValidationError
from repro.util.units import MB
from repro.workloads import tracepack
from repro.workloads.tracepack import TracePack, compile_columns, pack_key

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


def _engine(n=3):
    engine = TraceEngine(prefetchers_on=False, backend="kernel")
    start = 0
    for i, ways in enumerate(_PARTITIONS[n]):
        core = engine.hierarchy.core_of_tid(_TIDS[i])
        engine.hierarchy.set_way_mask(core, WayMask.contiguous(ways, start))
        start += ways
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


def _build_replay(builder, engine, workloads, packs, plain=False):
    """``plain``: the Python builder, which takes plain line lists and
    indexes the LLC itself; else the native one, which takes the pack
    columns and their set columns."""
    h = engine.hierarchy
    if plain:
        columns = [[p.lines_list() for p in packs]]
    else:
        llc = h.llc.storage
        indexing = "mod" if llc._mod_mask >= 0 else "hash"
        columns = [
            [p.line for p in packs],
            [p.set_column(llc.num_sets, indexing) for p in packs],
        ]
    return builder(
        h,
        [h.core_of_tid(w.tid) for w in workloads],
        [w.think_cycles for w in workloads],
        *columns,
        [len(p.line) for p in packs],
        [w.repeat for w in workloads],
    )


class TestEpochResume:
    """Splitting a replay into epochs must change nothing."""

    def test_python_epoch_split_matches_single_epoch(self):
        workloads = _workloads(3)
        packs = _packs(workloads)
        total = 12_000

        one = _engine(3)
        whole = _build_replay(build_python_epoch_replay, one, workloads,
                              packs, plain=True)
        whole.run_epoch(total)
        whole_out = whole.finish()

        many = _engine(3)
        split = _build_replay(build_python_epoch_replay, many, workloads,
                              packs, plain=True)
        done = 0
        while done < total:
            done = split.run_epoch(min(done + 777, total))
        split_out = split.finish()

        assert split_out == whole_out
        assert _signature(many, None) == _signature(one, None)

    def test_native_lockstep_with_python_driver(self):
        """Epoch boundaries: issued counts, virtual times, per-domain
        counters, and the resident set agree at every single boundary."""
        if not native_available():
            pytest.skip("native kernels unavailable")
        workloads = _workloads(3)
        packs = _packs(workloads)

        py_engine = _engine(3)
        py = _build_replay(build_python_epoch_replay, py_engine, workloads,
                           packs, plain=True)
        nat_engine = _engine(3)
        nat = _build_replay(build_native_epoch_replay, nat_engine, workloads,
                            packs)
        assert nat is not None and nat.native and not py.native

        total, step, done = 10_000, 640, 0
        while done < total:
            target = min(done + step, total)
            py_done = py.run_epoch(target)
            nat_done = nat.run_epoch(target)
            assert nat_done == py_done
            assert nat.vtimes() == py.vtimes()
            assert [nat.counters(i) for i in range(3)] == [
                py.counters(i) for i in range(3)
            ]
            assert nat.llc_resident() == py.llc_resident()
            done = py_done
        assert nat.finish() == py.finish()
        assert _signature(nat_engine, None) == _signature(py_engine, None)

    def test_mask_change_is_flush_free(self):
        """A reallocation at an epoch boundary must not disturb a single
        resident line or any recency state: the replays straddle it and
        still agree with each other in full-state signature."""
        if not native_available():
            pytest.skip("native kernels unavailable")
        workloads = _workloads(3)
        packs = _packs(workloads)

        py_engine = _engine(3)
        py = _build_replay(build_python_epoch_replay, py_engine, workloads,
                           packs, plain=True)
        nat_engine = _engine(3)
        nat = _build_replay(build_native_epoch_replay, nat_engine, workloads,
                            packs)

        py.run_epoch(6_000)
        nat.run_epoch(6_000)
        resident = nat.llc_resident()
        assert resident == py.llc_resident()
        assert resident  # the straddle is only meaningful with lines in

        # Shrink the foreground 6 -> 3 ways, grow bg2 3 -> 6.
        for engine in (py_engine, nat_engine):
            h = engine.hierarchy
            h.set_way_mask(h.core_of_tid(0), WayMask.contiguous(3, 0))
            h.set_way_mask(h.core_of_tid(2), WayMask.contiguous(6, 6))
        py.refresh_masks()
        nat.refresh_masks()

        # The hand-off is lazy: nothing was evicted by the mask change.
        assert nat.llc_resident() == resident
        assert py.llc_resident() == resident

        py.run_epoch(12_000)
        nat.run_epoch(12_000)
        assert nat.finish() == py.finish()
        assert _signature(nat_engine, None) == _signature(py_engine, None)


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

        engine = _engine(3)
        native_sig = _signature(
            engine,
            engine.run_packed(workloads, total_accesses=total, packs=packs),
        )

        def python_run():
            engine = _engine(3)
            return _signature(
                engine,
                engine.run_packed(workloads, total_accesses=total,
                                  packs=packs),
            )

        assert without_native(python_run) == native_sig

        py_engine = _engine(3)
        py = _build_replay(build_python_epoch_replay, py_engine, workloads,
                           packs, plain=True)
        nat_engine = _engine(3)
        nat = _build_replay(build_native_epoch_replay, nat_engine, workloads,
                            packs)
        py.run_epoch(total)
        nat.run_epoch(total)
        assert nat.finish() == py.finish()
        assert _signature(nat_engine, None) == _signature(py_engine, None)


class TestRunPackedMultiwalk:
    """run_packed's N>=3 routing through the native kernel."""

    def test_four_domain_co_run_identical(self):
        workloads = _workloads(4)
        packs = _packs(workloads)
        total = 16_000

        engine = _engine(4)
        stats = engine.run_packed(workloads, total_accesses=total, packs=packs)
        native_sig = _signature(engine, stats)

        def python_run():
            engine = _engine(4)
            return _signature(
                engine,
                engine.run_packed(workloads, total_accesses=total,
                                  packs=packs),
            )

        assert without_native(python_run) == native_sig

    def test_nonrepeating_domains_retire_identically(self):
        workloads = _workloads(3, length=1_500,
                               repeats=[False, True, False])
        packs = _packs(workloads)
        total = 12_000

        engine = _engine(3)
        stats = engine.run_packed(workloads, total_accesses=total, packs=packs)
        native_sig = _signature(engine, stats)
        assert stats["fg"].accesses == 1_500
        assert stats["bg2"].accesses == 1_500

        def python_run():
            engine = _engine(3)
            return _signature(
                engine,
                engine.run_packed(workloads, total_accesses=total,
                                  packs=packs),
            )

        assert without_native(python_run) == native_sig


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
        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        controller = DynamicPartitionController("fg", "bg")
        result = engine.run_dynamic(
            self._workloads(),
            controller,
            epoch_accesses=3_000,
            total_accesses=36_000,
        )
        return result, _signature(engine, result.stats)

    def test_timeline_byte_equal_across_backends(self):
        native_result, native_sig = self._run()
        python_result, python_sig = without_native(self._run)
        assert native_result.native is native_available()
        assert python_result.native is False
        assert native_result.timeline  # the controller actually acted
        assert json.dumps(native_result.timeline, sort_keys=True) == \
            json.dumps(python_result.timeline, sort_keys=True)
        assert native_result.actions == python_result.actions
        assert native_result.epochs == python_result.epochs
        assert python_sig == native_sig

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
        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        with pytest.raises(ValidationError):
            engine.run_dynamic(
                self._workloads(),
                DynamicPartitionController("fg", "bg"),
                epoch_accesses=0,
            )

    def test_rejects_mismatched_controller_names(self):
        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        with pytest.raises(ValidationError):
            engine.run_dynamic(
                self._workloads(),
                DynamicPartitionController("fg", "other"),
                epoch_accesses=3_000,
                total_accesses=6_000,
            )

    def test_rejects_prefetching_engine(self):
        engine = TraceEngine(prefetchers_on=True, backend="kernel")
        with pytest.raises(ValidationError):
            engine.run_dynamic(
                self._workloads(),
                DynamicPartitionController("fg", "bg"),
            )

    def test_in_memory_packs_accepted(self):
        workloads = self._workloads()
        packs = [
            TracePack(compile_columns(w.trace_factory()),
                      pack_key(w.trace_factory()))
            for w in workloads
        ]
        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        result = engine.run_dynamic(
            workloads,
            DynamicPartitionController("fg", "bg"),
            epoch_accesses=3_000,
            total_accesses=12_000,
            packs=packs,
        )
        assert result.epochs == 4


class TestMpkiWindow:
    def test_scales_misses_per_kilo_access(self):
        assert mpki_window(5, 1000) == 5.0
        assert mpki_window(0, 1000) == 0.0

    def test_zero_accesses_is_zero(self):
        assert mpki_window(3, 0) == 0.0
