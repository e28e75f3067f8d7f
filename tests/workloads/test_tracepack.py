"""Compiled trace packs: compilation fidelity and the on-disk cache."""

import json
import os

import numpy as np
import pytest

from repro.perf import engine_counters as ec
from repro.util.errors import ValidationError
from repro.util.units import MB
from repro.workloads import tracepack
from repro.workloads.tracepack import (
    TracePack,
    compile_columns,
    get_pack,
    pack_key,
    verify_pack,
)
from repro.workloads.trace import (
    PointerChaseTrace,
    StencilTrace,
    StreamingTrace,
    StridedTrace,
    ZipfTrace,
)


@pytest.fixture(autouse=True)
def _isolated_pack_registry(monkeypatch, tmp_path):
    """Fresh in-process registry and a private cache dir per test."""
    monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


def _zipf(**overrides):
    params = dict(length=400, working_set_bytes=1 * MB, alpha=0.9, seed=3)
    params.update(overrides)
    return ZipfTrace(**params)


ALL_KINDS = [
    lambda: StreamingTrace(300, 256 * 1024),
    lambda: StridedTrace(300, stride=192, num_streams=3),
    lambda: PointerChaseTrace(300, 128 * 1024, seed=9),
    lambda: _zipf(),
    lambda: StencilTrace(300, rows=16, cols=16),
]


class TestCompilation:
    @pytest.mark.parametrize("factory", ALL_KINDS)
    def test_compiled_matches_generator(self, factory):
        """The vectorized compiler reproduces __iter__ element for element."""
        pack = TracePack(compile_columns(factory()), pack_key(factory()))
        assert verify_pack(pack, factory()) == len(pack)

    @pytest.mark.parametrize("factory", ALL_KINDS)
    def test_accesses_round_trip(self, factory):
        pack = TracePack(compile_columns(factory()), pack_key(factory()))
        replayed = list(pack.accesses())
        original = list(factory())
        assert replayed == original

    def test_generic_fallback_for_unregistered_generator(self):
        class Tweaked(ZipfTrace):
            def __iter__(self):  # not the registered ZipfTrace stream
                for acc in super().__iter__():
                    yield acc

        trace = Tweaked(100, 1 * MB, alpha=0.9, seed=3)
        pack = TracePack(compile_columns(trace), "k")
        assert verify_pack(
            pack, Tweaked(100, 1 * MB, alpha=0.9, seed=3)
        ) == 100

    def test_verify_pack_catches_divergence(self):
        columns = compile_columns(_zipf())
        columns["address"] = columns["address"].copy()
        columns["address"][17] += 64
        pack = TracePack(columns, "k")
        with pytest.raises(ValidationError, match="access 17"):
            verify_pack(pack, _zipf())

    def test_verify_pack_catches_length_mismatch(self):
        pack = TracePack(compile_columns(_zipf()), "k")
        with pytest.raises(ValidationError, match="too short"):
            verify_pack(pack, _zipf(length=401))
        with pytest.raises(ValidationError, match="too long"):
            verify_pack(pack, _zipf(length=399))

    def test_writes_list_none_for_read_only_trace(self):
        pack = TracePack(compile_columns(_zipf()), "k")
        assert pack.writes_list() is None


class TestContentAddressing:
    def test_key_is_deterministic(self):
        assert pack_key(_zipf()) == pack_key(_zipf())

    @pytest.mark.parametrize(
        "change",
        [
            {"length": 401},
            {"working_set_bytes": 1 * MB + 64},
            {"alpha": 0.91},
            {"seed": 4},
            {"tid": 2},
        ],
    )
    def test_any_parameter_change_changes_key(self, change):
        assert pack_key(_zipf(**change)) != pack_key(_zipf())

    def test_generator_class_is_part_of_the_key(self):
        stream = StreamingTrace(300, 1 * MB)
        chase = PointerChaseTrace(300, 1 * MB)
        assert pack_key(stream) != pack_key(chase)

    def test_geometry_binds_the_key(self):
        base = pack_key(_zipf())
        assert pack_key(_zipf(), geometry=(4096, 12, "hash")) != base
        assert pack_key(_zipf(), geometry=(4096, 12, "hash")) != pack_key(
            _zipf(), geometry=(4096, 12, "mod")
        )


class TestDiskCache:
    def test_miss_compiles_and_stores(self, tmp_path):
        base = ec.engine_counters().snapshot()
        pack = get_pack(_zipf())
        delta = ec.engine_counters().delta(base)
        assert delta.get(ec.PACK_MISSES) == 1
        assert delta.get(ec.PACK_COMPILED_ACCESSES) == 400
        assert pack.path is not None and os.path.isdir(pack.path)

    def test_second_lookup_is_a_disk_hit_with_zero_generation(self):
        first = get_pack(_zipf())
        # Drop the in-process memo: the hit below must come from disk.
        tracepack._OPEN_PACKS.clear()
        base = ec.engine_counters().snapshot()
        second = get_pack(_zipf())
        delta = ec.engine_counters().delta(base)
        assert delta.get(ec.PACK_HITS) == 1
        assert not delta.get(ec.PACK_MISSES)
        assert not delta.get(ec.PACK_COMPILED_ACCESSES)
        assert second.lines_list() == first.lines_list()
        # Served via memmap, not a fresh in-memory compile.
        assert isinstance(second.address, np.memmap)

    def test_stale_file_reuse_is_impossible(self):
        """A pack stored under the wrong key is recompiled, not trusted."""
        pack = get_pack(_zipf())
        impostor_key = pack_key(_zipf(seed=4))
        impostor_dir = os.path.join(os.path.dirname(pack.path), impostor_key)
        os.rename(pack.path, impostor_dir)
        tracepack._OPEN_PACKS.clear()
        base = ec.engine_counters().snapshot()
        fresh = get_pack(_zipf(seed=4))
        delta = ec.engine_counters().delta(base)
        assert delta.get(ec.PACK_MISSES) == 1  # key mismatch -> recompile
        assert verify_pack(fresh, _zipf(seed=4)) == 400

    def test_corrupt_meta_is_recompiled(self):
        pack = get_pack(_zipf())
        with open(os.path.join(pack.path, "meta.json"), "w") as handle:
            handle.write("not json")
        tracepack._OPEN_PACKS.clear()
        base = ec.engine_counters().snapshot()
        get_pack(_zipf())
        assert ec.engine_counters().delta(base).get(ec.PACK_MISSES) == 1

    def test_version_bump_invalidates_stored_packs(self):
        pack = get_pack(_zipf())
        meta_path = os.path.join(pack.path, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["pack_version"] = tracepack.PACK_VERSION + 1
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        tracepack._OPEN_PACKS.clear()
        base = ec.engine_counters().snapshot()
        get_pack(_zipf())
        assert ec.engine_counters().delta(base).get(ec.PACK_MISSES) == 1

    def test_unwritable_cache_degrades_to_memory(self, tmp_path,
                                                 monkeypatch):
        missing = tmp_path / "nope"
        missing.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(missing))
        base = ec.engine_counters().snapshot()
        pack = get_pack(_zipf())
        assert pack.path is None
        assert verify_pack(pack, _zipf()) == 400
        # The in-memory pack is registered: a repeat lookup is a hit on
        # the same object, not a second compile.
        assert get_pack(_zipf()) is pack
        delta = ec.engine_counters().delta(base)
        assert delta.get(ec.PACK_MISSES) == 1
        assert delta.get(ec.PACK_HITS) == 1

    def test_repeat_lookups_reuse_the_key_and_count_every_hit(self):
        first = get_pack(_zipf())
        base = ec.engine_counters().snapshot()
        for _ in range(3):
            assert get_pack(_zipf()) is first
        delta = ec.engine_counters().delta(base)
        assert delta.get(ec.PACK_HITS) == 3
        assert not delta.get(ec.PACK_MISSES)
        assert first.key == pack_key(_zipf())

    @pytest.mark.parametrize(
        "pair",
        [(1, 1.0), (1, True), (0.0, -0.0)],
        ids=["int-float", "int-bool", "signed-zero"],
    )
    def test_equal_but_differently_keyed_params_never_share_a_pack(
        self, pair
    ):
        traces = []
        for label in pair:
            trace = StreamingTrace(300, 256 * 1024)
            trace.label = label  # a parameter the compiler ignores
            traces.append(trace)
        packs = [get_pack(trace) for trace in traces]
        assert packs[0].key != packs[1].key
        for pack, trace in zip(packs, traces):
            assert pack.key == pack_key(trace)

    def test_unhashable_params_take_the_keyed_path(self):
        trace = StreamingTrace(300, 256 * 1024)
        trace.extra = [1, 2]
        assert get_pack(trace).key == pack_key(trace)
        trace.extra = [1, 3]
        assert get_pack(trace).key == pack_key(trace)

    def test_set_column_persisted_and_correct(self):
        from repro.cache.indexing import HashedIndex

        pack = get_pack(_zipf())
        column = pack.set_column(4096, "hash")
        indexer = HashedIndex(4096)
        expected = [indexer.index(line) for line in pack.lines_list()]
        assert column.tolist() == expected
        stored = os.path.join(pack.path, "set_hash4096.npy")
        assert os.path.exists(stored)
        # A fresh open serves the derived column from disk, memmapped.
        tracepack._OPEN_PACKS.clear()
        reopened = get_pack(_zipf())
        again = reopened.set_column(4096, "hash")
        assert isinstance(again, np.memmap)
        assert again.tolist() == expected

    @pytest.mark.parametrize("bad", [-1, 8192, 1 << 40],
                             ids=["negative", "num-sets", "huge"])
    def test_out_of_range_set_column_is_recomputed(self, bad):
        """A stored set column with an index outside the LLC's sets
        would reach the native kernels as an out-of-bounds set: it is
        treated like a wrong-length column, recomputed and overwritten,
        and a roster over the pack replays exactly as on a clean cache."""
        from repro.sim.trace_engine import (
            RosterCell,
            TraceEngine,
            TraceWorkload,
            run_packed_roster,
        )

        def roster():
            workloads = [
                TraceWorkload("fg", lambda: _zipf(length=3_000, tid=0),
                              tid=0, think_cycles=6),
                TraceWorkload("bg", lambda: StreamingTrace(
                    2_000, 2 * MB, tid=4), tid=4, think_cycles=2),
            ]
            return [RosterCell(workloads=workloads, total_accesses=6_000)]

        clean = run_packed_roster(roster())
        engine = TraceEngine(prefetchers_on=False)
        num_sets = engine.hierarchy.llc.storage.num_sets
        pack = get_pack(_zipf(length=3_000, tid=0))
        stored = os.path.join(pack.path, f"set_hash{num_sets}.npy")
        expected = np.load(stored).tolist()
        corrupt = np.array(expected, dtype=np.int64)
        corrupt[len(corrupt) // 2] = bad
        np.save(stored, corrupt)

        tracepack._OPEN_PACKS.clear()
        assert run_packed_roster(roster()) == clean
        assert np.load(stored).tolist() == expected
