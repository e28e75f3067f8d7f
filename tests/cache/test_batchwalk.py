"""The batched native replay kernel: one C call per roster / way sweep.

The contract under test is bit-identity: ``run_packed_roster`` must
return exactly what a fresh :class:`TraceEngine` + ``run_packed`` per
cell returns — for any thread count, and with the native kernels
disabled entirely. The same harness covers the measured
``TraceBackend`` sweep built on top.
"""

import os

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.llc import WayMask
from repro.cache.profile import LLC_NUM_WAYS
from repro.sim.trace_engine import (
    RosterCell,
    TraceEngine,
    TraceWorkload,
    _run_roster_sequential,
    run_packed_roster,
)
from repro.util.errors import ValidationError
from repro.workloads.trace import (
    PointerChaseTrace,
    StreamingTrace,
    ZipfTrace,
)
from repro.workloads.tracepack import get_pack

from .._batch import batch_cells, run_cells
from .._native import native_available, without_native

KB = 1024


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


def _workload(name, maker, tid, think=2, repeat=True):
    return TraceWorkload(name, maker, tid=tid, think_cycles=think,
                         repeat=repeat)


def _pair(fg_n=900, bg_n=700):
    return [
        _workload(
            "fg",
            lambda: ZipfTrace(fg_n, 256 * KB, alpha=0.9, tid=0, seed=7),
            0, think=6,
        ),
        _workload(
            "bg",
            lambda: StreamingTrace(bg_n, 512 * KB, tid=4),
            4, think=2,
        ),
    ]


# The small test LLC: SMALL_SETS mod-indexed sets of 12 ways, so a line's
# LLC set is its number modulo SMALL_SETS. Lines count from _SMALL_BASE,
# in rows of SMALL_SETS lines: the warm template holds rows 0-10 whole
# and the first half of row 11 (the other half of its sets keep one
# invalid way); HOT is the first line of a resident row, COLD that of
# COLD_ROW, the first row no template holds.
SMALL_SETS = 256
_SMALL_BASE = 0x100_0000  # a multiple of SMALL_SETS lines: set 0
HOT = 10 * SMALL_SETS
COLD_ROW = 12
COLD = COLD_ROW * SMALL_SETS


def _stream(name, n, first_line, tid, think=2, repeat=True):
    """A stream over ``n`` consecutive small-LLC lines from
    ``first_line``."""
    start = _SMALL_BASE + first_line * 64
    return _workload(
        name, lambda: StreamingTrace(n, n * 64, start=start, tid=tid),
        tid, think=think, repeat=repeat,
    )


def _chase(name, n, lines, first_line, tid, think=2, repeat=True):
    """A pointer chase over ``lines`` consecutive small-LLC lines from
    ``first_line``."""
    start = _SMALL_BASE + first_line * 64
    return _workload(
        name,
        lambda: PointerChaseTrace(n, lines * 64, start=start, tid=tid),
        tid, think=think, repeat=repeat,
    )


def _column(name, n, rows, first_row, set_index, tid, think=2,
            repeat=True):
    """A stream down one small-LLC set: the lines of ``set_index`` in
    rows ``first_row`` to ``first_row + rows - 1``, in order, wrapping."""
    start = _SMALL_BASE + (first_row * SMALL_SETS + set_index) * 64
    stride = SMALL_SETS * 64
    return _workload(
        name,
        lambda: StreamingTrace(
            n, rows * stride, start=start, stride=stride, tid=tid
        ),
        tid, think=think, repeat=repeat,
    )


def _split_masks(fg_ways):
    # fg on core 0 (tid 0), bg on core 2 (tid 4), disjoint contiguous.
    return {
        0: WayMask.contiguous(fg_ways, 0),
        2: WayMask.contiguous(LLC_NUM_WAYS - fg_ways, fg_ways),
    }


def _mixed_cells():
    """Masked pairs over different splits, a shared pair, a 3-domain
    cell, and a 1-domain cell — each with its own issue budget."""
    cells = [
        RosterCell(
            workloads=_pair(),
            masks=_split_masks(fg_ways),
            total_accesses=4_000,
        )
        for fg_ways in (2, 5, 9)
    ]
    cells.append(RosterCell(workloads=_pair(1100, 500), total_accesses=3_000))
    cells.append(RosterCell(
        workloads=[
            _workload(
                "a",
                lambda: ZipfTrace(500, 128 * KB, alpha=0.8, tid=0, seed=3),
                0,
            ),
            _workload(
                "b", lambda: StreamingTrace(400, 256 * KB, tid=2), 2
            ),
            _workload(
                "c",
                lambda: PointerChaseTrace(300, 128 * KB, tid=4, seed=5),
                4, think=1,
            ),
        ],
        total_accesses=2_500,
    ))
    cells.append(RosterCell(
        workloads=[
            _workload(
                "solo",
                lambda: ZipfTrace(600, 256 * KB, alpha=1.1, tid=6, seed=9),
                6,
            )
        ],
        total_accesses=2_000,
    ))
    return cells


class TestRosterValidation:
    def test_empty_roster_is_empty(self):
        assert run_packed_roster([]) == []

    def test_cell_without_workloads_rejected(self):
        with pytest.raises(ValidationError):
            run_packed_roster([RosterCell(workloads=[])])

    def test_duplicate_names_rejected(self):
        pair = _pair()
        clash = [pair[0], _workload("fg", pair[1].trace_factory, 4)]
        with pytest.raises(ValidationError):
            run_packed_roster([RosterCell(workloads=clash)])

    @pytest.mark.parametrize("native_on", [True, False],
                             ids=["native", "python"])
    @pytest.mark.parametrize("masks, message", [
        ({0: WayMask.contiguous(3, 0, 8)}, "different LLC"),
        ({9: WayMask.contiguous(3, 0)}, "unknown domain 9"),
    ], ids=["8-way-mask", "core-9"])
    def test_masks_set_way_mask_refuses_are_rejected(
        self, masks, message, native_on
    ):
        """Every path raises what ``set_way_mask`` raises on the
        sequential reference, before any replay."""
        cells = [RosterCell(_pair(), total_accesses=2_000),
                 RosterCell(_pair(), masks=masks, total_accesses=2_000)]

        def run():
            with pytest.raises(ValidationError, match=message):
                run_packed_roster(cells)

        run() if native_on else without_native(run)


class TestBatchedRoster:
    def test_batch_matches_sequential_for_mixed_cells(self):
        batched = run_packed_roster(_mixed_cells())
        sequential = _run_roster_sequential(_mixed_cells())
        assert batched == sequential

    def test_disabling_native_gives_identical_results(self):
        batched = run_packed_roster(_mixed_cells())
        fallback = without_native(
            lambda: run_packed_roster(_mixed_cells())
        )
        assert batched == fallback

    def test_thread_count_never_changes_results(self):
        reference = run_packed_roster(_mixed_cells(), threads=1)
        for threads in (2, 4):
            assert run_packed_roster(
                _mixed_cells(), threads=threads
            ) == reference

    def test_env_thread_knob_is_equivalent_to_the_argument(
        self, monkeypatch
    ):
        explicit = run_packed_roster(_mixed_cells(), threads=3)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert run_packed_roster(_mixed_cells()) == explicit

    @pytest.mark.skipif(
        not native_available(), reason="the thread knob is a kernel input"
    )
    def test_bad_env_thread_knob_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "many")
        with pytest.raises(ValidationError):
            run_packed_roster(_mixed_cells())

    @pytest.mark.skipif(
        not native_available(), reason="counts native batch calls"
    )
    def test_one_call_for_the_whole_roster(self):
        from repro.perf import engine_counters as ec

        cells = _mixed_cells()
        before = ec.engine_counters().snapshot()
        run_packed_roster(cells)
        after = ec.engine_counters().snapshot()
        assert after[ec.BATCH_CALLS] == before[ec.BATCH_CALLS] + 1
        assert after[ec.BATCH_CELLS] == before[ec.BATCH_CELLS] + len(cells)

    def test_masked_cell_matches_fresh_engine_with_masks(self):
        fg_ways = 4
        cell = RosterCell(
            workloads=_pair(), masks=_split_masks(fg_ways),
            total_accesses=4_000,
        )
        (batched,) = run_packed_roster([cell])

        engine = TraceEngine(prefetchers_on=False)
        for core, mask in _split_masks(fg_ways).items():
            engine.hierarchy.set_way_mask(core, mask)
        direct = engine.run_packed(_pair(), total_accesses=4_000)
        assert batched == direct


# A zero word, a word with a bit above the 12 LLC ways, a negative word.
_BAD_MASK_WORDS = [0, 0x1FF | 1 << 13, -1]


class TestMaskWordValidation:
    """Bad LLC way-mask words raise before they can reach a kernel."""

    @staticmethod
    def _hierarchy_and_cell(mask_bits=None):
        hierarchy = TraceEngine(prefetchers_on=False).hierarchy
        llc = hierarchy.llc.storage
        packs = [get_pack(w.trace_factory()) for w in _pair()]
        cell = {
            "cores": [0, 2],
            "thinks": [6, 2],
            "mask_bits": mask_bits,
            "lines": [p.line for p in packs],
            "sets": [p.set_column(llc.num_sets) for p in packs],
            "lengths": [len(p.line) for p in packs],
            "repeats": [True, True],
            "stop": 1_000,
        }
        return hierarchy, cell

    @pytest.mark.parametrize("bits", _BAD_MASK_WORDS,
                             ids=["zero", "above-ways", "negative"])
    def test_batch_builders_reject_bad_word(self, bits):
        from repro.cache.kernel import (
            build_native_batch_replay,
            build_native_epoch_batch_replay,
        )

        for build in (build_native_batch_replay,
                      build_native_epoch_batch_replay):
            hierarchy, cell = self._hierarchy_and_cell([0xE00, bits])
            with pytest.raises(ValidationError):
                build(hierarchy, batch_cells(hierarchy, [cell]))

    @pytest.mark.parametrize("bits", _BAD_MASK_WORDS,
                             ids=["zero", "above-ways", "negative"])
    def test_set_mask_bits_rejects_bad_word(self, bits):
        from repro.cache.kernel import build_native_epoch_batch_replay

        hierarchy, cell = self._hierarchy_and_cell()
        batch = build_native_epoch_batch_replay(
            hierarchy, batch_cells(hierarchy, [cell])
        )
        if batch is None:
            pytest.skip("native kernels unavailable")
        with pytest.raises(ValidationError):
            batch.set_mask_bits(0, 1, bits)

    def test_word_count_must_match_the_domains(self):
        from repro.cache.kernel import build_native_batch_replay

        hierarchy, cell = self._hierarchy_and_cell()
        cells = batch_cells(hierarchy, [cell])
        cells.masks = cells.masks[:, :1]  # one word for two domains
        with pytest.raises(ValidationError, match="mask"):
            build_native_batch_replay(hierarchy, cells)

    @pytest.mark.parametrize("short", ["sets", "lines", "lengths"])
    def test_batch_builders_reject_short_column(self, short):
        """The kernels read ``lengths[slot]`` entries of both columns: a
        column shorter than that, or than its partner, raises before any
        ctypes call."""
        from repro.cache.kernel import (
            build_native_batch_replay,
            build_native_epoch_batch_replay,
        )

        for build in (build_native_batch_replay,
                      build_native_epoch_batch_replay):
            hierarchy, cell = self._hierarchy_and_cell()
            if short == "lengths":
                cell["lengths"][1] += 1  # one past both columns
            else:
                cell[short][1] = cell[short][1][:-1]
            with pytest.raises(ValidationError, match="column"):
                build(hierarchy, batch_cells(hierarchy, [cell]))


    @pytest.mark.parametrize("bad", [8192, 100_000, -1],
                             ids=["num-sets", "far-above", "negative"])
    @pytest.mark.parametrize("kind", ["array", "list"])
    def test_batch_builders_reject_out_of_range_set_index(self, bad, kind):
        """A hand-built set column indexing outside the LLC would make
        the kernel write outside its bank: it raises before any ctypes
        call, for arrays and plain lists alike."""
        import numpy as np

        from repro.cache.kernel import (
            build_native_batch_replay,
            build_native_epoch_batch_replay,
        )

        for build in (build_native_batch_replay,
                      build_native_epoch_batch_replay):
            hierarchy, cell = self._hierarchy_and_cell()
            sets = np.array(cell["sets"][1])
            sets[len(sets) // 2] = bad
            cell["sets"][1] = sets if kind == "array" else sets.tolist()
            with pytest.raises(ValidationError, match="set column"):
                build(hierarchy, batch_cells(hierarchy, [cell]))

    @pytest.mark.parametrize("core", [4, -1], ids=["past-last", "negative"])
    def test_batch_builders_reject_unknown_core(self, core):
        from repro.cache.kernel import (
            build_native_batch_replay,
            build_native_epoch_batch_replay,
        )

        for build in (build_native_batch_replay,
                      build_native_epoch_batch_replay):
            hierarchy, cell = self._hierarchy_and_cell()
            cell["cores"][1] = core
            with pytest.raises(ValidationError, match="core"):
                build(hierarchy, batch_cells(hierarchy, [cell]))


class TestWarmTemplate:
    """Every cell of a batch starts from the template, whichever worker
    bank it lands in: a worker that reused its bank without refilling it
    would hand the next cell the previous cell's cache state."""

    @staticmethod
    def _cell(hierarchy, workloads, stop, mask_bits=None):
        llc = hierarchy.llc.storage
        packs = [get_pack(w.trace_factory()) for w in workloads]
        return {
            "cores": [hierarchy.core_of_tid(w.tid) for w in workloads],
            "thinks": [w.think_cycles for w in workloads],
            "mask_bits": mask_bits,
            "lines": [p.line for p in packs],
            "sets": [p.set_column(llc.num_sets, llc.indexing) for p in packs],
            "lengths": [len(p.line) for p in packs],
            "repeats": [w.repeat for w in workloads],
            "stop": stop,
        }

    @staticmethod
    def _warm_template(small_llc=False, warm_tid=0):
        """A warmed kernel hierarchy with a non-default mask on core 0;
        every call builds an identical one. ``small_llc`` gives it the
        small LLC, which one cell can cover whole, warmed through the
        inner caches of ``warm_tid``'s core."""
        if small_llc:
            engine = TraceEngine(
                CacheHierarchy(
                    llc_bytes=SMALL_SETS * 12 * 64, llc_indexing="mod",
                ),
                prefetchers_on=False,
            )
            # Row k fills way k of every set it reaches.
            rows = 11 * SMALL_SETS + SMALL_SETS // 2
            engine.run([_stream("warm", rows, 0, tid=warm_tid)], rows)
        else:
            engine = TraceEngine(prefetchers_on=False)
            engine.run(_pair(), total_accesses=3_000)
        h = engine.hierarchy
        h.set_way_mask(0, WayMask.contiguous(5, 2))
        return h

    def _python_reference(self, cell, small_llc=False, warm_tid=0):
        """The cell on the pure-Python epoch driver over a private,
        identically warmed template."""
        from repro.cache.kernel import build_python_epoch_replay

        private = self._warm_template(small_llc, warm_tid)
        if cell["mask_bits"] is not None:
            for core, bits in zip(cell["cores"], cell["mask_bits"]):
                private.set_way_mask(core, WayMask.from_bits(bits))
        replay = build_python_epoch_replay(
            private, cell["cores"], cell["thinks"], cell["lines"],
            cell["lengths"], cell["repeats"],
        )
        replay.run_epoch(cell["stop"])
        return replay.finish()

    @pytest.mark.skipif(
        not native_available(), reason="exercises the native worker banks"
    )
    def test_cells_match_alone_and_python_from_a_warm_template(self):
        from repro.cache.kernel import build_native_batch_replay

        h = self._warm_template()
        assert any(h.llc.storage._valid) and any(h.l1[0]._valid)

        solo = [_workload(
            "solo",
            lambda: ZipfTrace(600, 256 * KB, alpha=1.1, tid=6, seed=9), 6,
        )]
        trio = [
            _workload(
                "a",
                lambda: ZipfTrace(500, 128 * KB, alpha=0.8, tid=0, seed=3),
                0,
            ),
            _workload("b", lambda: StreamingTrace(400, 256 * KB, tid=2), 2),
            _workload(
                "c",
                lambda: PointerChaseTrace(300, 128 * KB, tid=4, seed=5),
                4, think=1,
            ),
        ]
        cells = [
            self._cell(h, _pair(), 4_000),  # the template's own masks
            self._cell(h, _pair(1100, 500), 3_000, [0x0F0, 0xF0F]),
            self._cell(h, trio, 2_500),
            self._cell(h, solo, 2_000, [0x00F]),
            self._cell(h, _pair(), 1_500, [0xFFF, 0x003]),
        ]
        batch = build_native_batch_replay(
            h, batch_cells(h, cells), threads=2
        )
        assert batch is not None
        results = run_cells(batch)
        assert len(set(results)) == len(cells)
        for cell, result in zip(cells, results):
            alone = run_cells(build_native_batch_replay(
                h, batch_cells(h, [cell]), threads=1
            ))
            assert result == alone[0]
            assert result == self._python_reference(cell)

    # One worker bank serves every cell below (threads=1), so each cell
    # after the first starts from a bank reset to the template where the
    # previous cell wrote it: the LLC sets of its accesses, the L1/L2 of
    # its cores and of every core the template's L1/L2 holds lines in,
    # and the bi counters. The cells live on the small mod-indexed LLC,
    # where a trace's sets follow from its addresses.

    def _one_worker(self, h, cells, warm_tid=0):
        """Run ``cells`` on one worker bank; the results must equal each
        cell run alone and the Python reference."""
        from repro.cache.kernel import build_native_batch_replay

        batch = build_native_batch_replay(
            h, batch_cells(h, cells), threads=1
        )
        assert batch is not None
        expected = [
            run_cells(build_native_batch_replay(
                h, batch_cells(h, [cell]), threads=1
            ))[0]
            for cell in cells
        ]
        assert expected == [
            self._python_reference(cell, small_llc=True, warm_tid=warm_tid)
            for cell in cells
        ]
        assert run_cells(batch) == expected
        return expected

    @staticmethod
    def _touched(cell):
        """Every LLC set the cell's columns name (whole columns)."""
        return {
            int(s) for column in cell["sets"] for s in column
        }

    @pytest.mark.skipif(
        not native_available(), reason="exercises the native worker banks"
    )
    def test_one_worker_resets_overlapping_then_disjoint_sets(self):
        h = self._warm_template(small_llc=True)
        # Sets 5 and 6 are full in the template; 130 and 200 keep an
        # invalid way. Each cell misses into its sets (columns from the
        # cold rows) while other cores probe the template's lines there.
        a = self._cell(h, [
            _column("a0", 40, 12, COLD_ROW, 5, tid=2),
            _column("a1", 40, 4, COLD_ROW, 130, tid=4),
            _chase("a2", 300, 100, HOT, tid=6),
        ], 200, [0xFFF, 0xF0F, 0x0FF])
        b = self._cell(h, [
            _column("b0", 60, 12, COLD_ROW + 20, 5, tid=6),
            _column("b1", 60, 12, 0, 5, tid=2),
            _column("b2", 60, 11, 0, 6, tid=4),
            # Core 0's L2 holds every template line: the LLC evictions
            # above must back-invalidate it through the line's sharers.
            _column("b3", 60, 12, 0, 5, tid=0, think=150),
        ], 200)
        c = self._cell(h, [
            _column("c0", 60, 3, COLD_ROW, 130, tid=2),
            _column("c1", 60, 11, 0, 130, tid=4),
            _column("c2", 60, 13, 0, 200, tid=6),
        ], 150, [0xFFF, 0xFFF, 0x0F0])
        d = self._cell(h, [
            _column("d0", 60, 2, COLD_ROW + 10, 200, tid=2),
            _column("d1", 60, 11, 0, 200, tid=4),
            _chase("d2", 200, 64, HOT + 100, tid=6),
        ], 200, [0xFFF, 0x0FF, 0xFFF])
        assert self._touched(a) & self._touched(b)
        assert not self._touched(b) & self._touched(c)
        assert self._touched(c) & self._touched(d)
        results = self._one_worker(h, [a, b, c, d])
        assert len(set(results)) == 4

    @pytest.mark.skipif(
        not native_available(), reason="exercises the native worker banks"
    )
    def test_a_cell_that_marks_every_set_then_small_cells(self):
        h = self._warm_template(small_llc=True)
        small = self._cell(h, [
            _column("s0", 40, 12, COLD_ROW, 9, tid=2),
            _chase("s1", 150, 60, HOT, tid=4),
        ], 200)
        whole = self._cell(h, [
            _column("w0", 40, 3, COLD_ROW + 20, 9, tid=6, repeat=False),
            _column("w1", 60, 12, 0, 9, tid=2, repeat=False),
            _stream("w2", 2 * SMALL_SETS, COLD, tid=4, repeat=False),
        ], 4 * SMALL_SETS, [0xFFF, 0xFFF, 0x0FF])
        after = self._cell(h, [
            _column("t0", 40, 3, COLD_ROW + 30, 140, tid=6),
            _column("t1", 60, 11, 0, 140, tid=4),
        ], 100)
        again = self._cell(h, [
            _column("u0", 40, 3, COLD_ROW + 40, 140, tid=2),
            _column("u1", 60, 11, 0, 140, tid=6),
            _chase("u2", 150, 64, HOT + 150, tid=4),
        ], 300)
        # Every domain retires before the stop: the stream issues its
        # whole column, which names every LLC set.
        assert len(set(whole["sets"][2].tolist())) == SMALL_SETS
        results = self._one_worker(h, [small, whole, after, again])
        assert list(map(sum, results[1][0])) == [40, 60, 2 * SMALL_SETS]

    @pytest.mark.skipif(
        not native_available(), reason="exercises the native worker banks"
    )
    @pytest.mark.parametrize("warm_tid", [6, 2], ids=["core-3", "core-1"])
    def test_back_invalidations_into_a_core_outside_the_cell(self, warm_tid):
        """The template's lines sit in one core's L1/L2. A cell on
        other cores evicts them from the LLC, back-invalidating that
        core's copies though it runs nothing in the cell; the next cell
        on that core must find its L1/L2 as the template holds them."""
        h = self._warm_template(small_llc=True, warm_tid=warm_tid)
        others = [tid for tid in (2, 4, 6) if tid != warm_tid]
        # Twelve cold lines in each of sets 5 and 6 evict every
        # template line there.
        evict = self._cell(h, [
            _column("e0", 60, 12, COLD_ROW, 5, tid=others[0]),
            _column("e1", 60, 12, COLD_ROW + 20, 6, tid=others[1]),
        ], 120)
        # The warm core rereads rows 0-10 of set 5, which its template
        # L2 holds; the other core rereads set 6.
        probe = self._cell(h, [
            _column("p0", 40, 11, 0, 5, tid=warm_tid),
            _column("p1", 40, 11, 0, 6, tid=others[0]),
        ], 80)
        results = self._one_worker(
            h, [evict, probe, evict, probe], warm_tid=warm_tid
        )
        assert results[1] == results[3]
        l1_hits, l2_hits = results[1][0][0][:2]
        assert l1_hits + l2_hits >= 11  # the warm core's L1/L2 held them

    @pytest.mark.skipif(
        not native_available(), reason="exercises the native worker banks"
    )
    def test_a_repeating_domain_past_its_column_end(self):
        h = self._warm_template(small_llc=True)
        # 250 accesses over a 100-entry column: the domain wraps twice
        # and ends mid-column, but every entry of it was issued. Its one
        # way evicts row 0, which the probe then chases.
        wrapped = self._cell(
            h, [_stream("r0", 100, COLD, tid=2)], 250, [0x001]
        )
        probe = self._cell(h, [
            _column("p0", 40, 3, COLD_ROW + 20, 80, tid=6),
            _column("p1", 60, 12, 0, 80, tid=4),
            _chase("p2", 300, 100, 0, tid=2),
        ], 400, [0xFFF, 0xFFF, 0xF00])
        results = self._one_worker(h, [wrapped, probe, wrapped, probe])
        assert sum(results[0][0][0]) == wrapped["stop"] == 250

    @pytest.mark.skipif(
        not native_available(), reason="exercises the native worker banks"
    )
    def test_a_second_batch_over_one_template(self):
        from repro.cache.kernel import build_native_batch_replay

        h = self._warm_template(small_llc=True)
        cells = [
            self._cell(h, [
                _column("x0", 40, 12, COLD_ROW, 7, tid=2),
                _stream("x1", 150, COLD + 20, tid=4),
            ], 300),
            self._cell(h, [
                _column("y0", 40, 3, COLD_ROW + 20, 7, tid=6),
                _column("y1", 60, 12, 0, 7, tid=2),
                _chase("y2", 120, 64, HOT + 80, tid=4),
            ], 300, [0xFFF, 0xFFF, 0xFF0]),
            self._cell(h, [
                _column("z0", 40, 3, COLD_ROW + 30, 7, tid=4),
                _column("z1", 60, 12, 0, 7, tid=6),
            ], 150),
        ]
        expected = self._one_worker(h, cells)
        # A second run() of a batch replays nothing: every cell has
        # already reached its stop. What one call could leave behind for
        # the next is checked on a second batch over the same template
        # and cells, run after the first and in reverse order.
        again = build_native_batch_replay(
            h, batch_cells(h, cells[::-1]), threads=1
        )
        assert run_cells(again) == expected[::-1]


class TestMeasuredSweep:
    @pytest.fixture(scope="class")
    def spec(self):
        from repro.analysis.experiments import trace_group_spec

        return trace_group_spec(
            ["zipf", "stream"], accesses=6_000,
            footprint_mb=0.5, bg_footprint_mb=1.0, seed=3,
        )

    def test_measured_sweep_equals_per_split_co_run(self, spec):
        from repro.backend import GroupSplit, TraceBackend

        backend = TraceBackend(total_accesses=6_000)
        sweep = backend.sweep(spec)
        assert [w for w, _ in sweep] == list(range(1, LLC_NUM_WAYS))
        for fg_ways, measured in sweep:
            direct = backend.co_run(
                spec, GroupSplit.disjoint(fg_ways, LLC_NUM_WAYS)
            )
            assert measured.fg_cost == direct.fg_cost
            assert measured.bg_rate == direct.bg_rate
            assert measured.raw == direct.raw
            assert measured.extra["source"] == "measured"

