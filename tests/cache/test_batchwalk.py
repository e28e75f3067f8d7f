"""The batched native replay kernel: one C call per roster / way sweep.

The contract under test is bit-identity: ``run_packed_roster`` must
return exactly what a fresh :class:`TraceEngine` + ``run_packed`` per
cell returns — for any thread count, and with the native kernels
disabled entirely. The same harness covers the set-sharded batch
profiler and the measured ``TraceBackend`` sweep built on top.
"""

import os

import pytest

from repro.cache.llc import WayMask
from repro.cache.profile import LLC_NUM_WAYS, WaySweep
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

        engine = TraceEngine(prefetchers_on=False, backend="kernel")
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
        hierarchy = TraceEngine(prefetchers_on=False, backend="kernel").hierarchy
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
                build(hierarchy, [cell])

    @pytest.mark.parametrize("bits", _BAD_MASK_WORDS,
                             ids=["zero", "above-ways", "negative"])
    def test_set_mask_bits_rejects_bad_word(self, bits):
        from repro.cache.kernel import build_native_epoch_batch_replay

        hierarchy, cell = self._hierarchy_and_cell()
        batch = build_native_epoch_batch_replay(hierarchy, [cell])
        if batch is None:
            pytest.skip("native kernels unavailable")
        with pytest.raises(ValidationError):
            batch.set_mask_bits(0, 1, bits)

    def test_word_count_must_match_the_domains(self):
        from repro.cache.kernel import build_native_batch_replay

        hierarchy, cell = self._hierarchy_and_cell([0xE00])
        with pytest.raises(ValidationError):
            build_native_batch_replay(hierarchy, [cell])

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
                build(hierarchy, [cell])


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
                build(hierarchy, [cell])

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
                build(hierarchy, [cell])


class TestWarmTemplate:
    """Every cell of a batch starts from the template, whichever worker
    bank it lands in: a worker that reused its bank without refilling it
    would hand the next cell the previous cell's cache state."""

    @staticmethod
    def _cell(hierarchy, workloads, stop, mask_bits=None):
        llc = hierarchy.llc.storage
        indexing = "mod" if llc._mod_mask >= 0 else "hash"
        packs = [get_pack(w.trace_factory()) for w in workloads]
        return {
            "cores": [hierarchy.core_of_tid(w.tid) for w in workloads],
            "thinks": [w.think_cycles for w in workloads],
            "mask_bits": mask_bits,
            "lines": [p.line for p in packs],
            "sets": [p.set_column(llc.num_sets, indexing) for p in packs],
            "lengths": [len(p.line) for p in packs],
            "repeats": [w.repeat for w in workloads],
            "stop": stop,
        }

    @staticmethod
    def _warm_template():
        """A warmed kernel hierarchy with a non-default mask on core 0;
        every call builds an identical one."""
        engine = TraceEngine(prefetchers_on=False, backend="kernel")
        engine.run(_pair(), total_accesses=3_000)
        h = engine.hierarchy
        h.set_way_mask(0, WayMask.contiguous(5, 2))
        return h

    def _python_reference(self, cell):
        """The cell on the pure-Python epoch driver over a private,
        identically warmed template."""
        from repro.cache.kernel import build_python_epoch_replay

        private = self._warm_template()
        if cell["mask_bits"] is not None:
            for core, bits in zip(cell["cores"], cell["mask_bits"]):
                private.set_way_mask(core, WayMask.from_bits(bits))
        replay = build_python_epoch_replay(
            private, cell["cores"], cell["thinks"], cell["lines"],
            cell["sets"], cell["lengths"], cell["repeats"],
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
        batch = build_native_batch_replay(h, cells, threads=2)
        assert batch is not None
        results = batch.run()
        assert len(set(results)) == len(cells)
        for cell, result in zip(cells, results):
            alone = build_native_batch_replay(h, [cell], threads=1).run()
            assert result == alone[0]
            assert result == self._python_reference(cell)


class TestBatchProfiler:
    def _pack(self):
        return get_pack(ZipfTrace(3_000, 512 * KB, alpha=0.9, seed=13))

    def test_native_profile_matches_python_single_domain(self):
        sweep = WaySweep(num_sets=256, num_ways=8, indexing="hash")
        pack = self._pack()
        native_curves = sweep.run_pack(pack)
        python_curves = without_native(lambda: sweep.run_pack(pack))
        assert native_curves[0].histogram == python_curves[0].histogram
        assert native_curves[0].accesses == python_curves[0].accesses

    def test_native_profile_matches_python_four_domains(self):
        import numpy as np

        sweep = WaySweep(
            num_sets=256, num_ways=8, indexing="hash", num_domains=4
        )
        pack = self._pack()
        # A deterministic 4-way interleaving of the stream.
        domains = np.arange(len(pack.line), dtype=np.int64) % 4
        native_curves = sweep.run_pack(pack, domains=domains)
        python_curves = without_native(
            lambda: sweep.run_pack(pack, domains=domains)
        )
        for d in range(4):
            assert native_curves[d].histogram == python_curves[d].histogram
            assert native_curves[d].accesses == python_curves[d].accesses

    def test_shard_count_never_changes_histograms(self, monkeypatch):
        if not native_available():
            pytest.skip("native kernels unavailable")
        sweep = WaySweep(num_sets=256, num_ways=8, indexing="hash")
        pack = self._pack()
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        one = sweep.run_pack(pack)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        four = sweep.run_pack(pack)
        assert one[0].histogram == four[0].histogram


class TestMeasuredSweep:
    @pytest.fixture(scope="class")
    def spec(self):
        from repro.analysis.experiments import trace_pair_spec

        return trace_pair_spec(
            "zipf", "stream", accesses=6_000,
            footprint_mb=0.5, bg_footprint_mb=1.0, seed=3,
        )

    def test_capability_reflects_the_mode(self):
        from repro.backend import TraceBackend

        assert not TraceBackend().capabilities().sweep_is_measured
        assert TraceBackend(
            measured_sweep=True
        ).capabilities().sweep_is_measured

    def test_measured_sweep_equals_per_split_co_run(self, spec):
        from repro.backend import TraceBackend, WaySplit

        backend = TraceBackend(total_accesses=6_000, measured_sweep=True)
        sweep = backend.sweep(spec)
        assert [w for w, _ in sweep] == list(range(1, LLC_NUM_WAYS))
        for fg_ways, measured in sweep:
            direct = backend.co_run(
                spec, WaySplit.disjoint(fg_ways, LLC_NUM_WAYS)
            )
            assert measured.fg_cost == direct.fg_cost
            assert measured.bg_rate == direct.bg_rate
            assert measured.raw == direct.raw
            assert measured.extra["source"] == "measured"

