"""Way profiling over compiled (NumPy-column) trace packs:
``WaySweep.run_pack`` against the sequential WayProfiler."""

import numpy as np
import pytest

from repro.cache.profile import WayProfiler, WaySweep
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.units import MB
from repro.workloads.tracepack import TracePack, compile_columns, get_pack
from repro.workloads.trace import StreamingTrace, ZipfTrace

from .._native import without_native


@pytest.fixture(autouse=True)
def _private_cache(monkeypatch, tmp_path):
    from repro.workloads import tracepack

    monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


def _zipf(tid=0):
    return ZipfTrace(3_000, 1 * MB, alpha=0.9, tid=tid, seed=5)


def _sequential_curves(pack, num_sets, num_ways, indexing, num_domains):
    """Ground truth: the per-access WayProfiler over the same stream."""
    profiler = WayProfiler(num_sets, num_ways, indexing, num_domains)
    lines = pack.lines_list()
    tids = pack.tid.tolist()
    for line, tid in zip(lines, tids):
        profiler.observe(line, tid >> 1 if num_domains > 1 else 0)
    return {d: profiler.curve(d) for d in range(num_domains)}


def _four_domain_pack():
    """A deterministic 4-way interleaving of one stream over tids 0, 2,
    4 and 6, one per profile domain."""
    columns = compile_columns(_zipf())
    columns["tid"] = np.arange(len(columns["tid"]), dtype=np.int64) % 4 * 2
    return TracePack(columns, "four-tids")


class TestProfilePack:
    @pytest.mark.parametrize("indexing", ["hash", "mod"])
    def test_matches_sequential_profiler_exactly(self, indexing):
        pack = get_pack(_zipf())
        profiled = WaySweep(512, 12, indexing).run_pack(pack)
        sequential = _sequential_curves(pack, 512, 12, indexing, 1)
        assert profiled[0].histogram == sequential[0].histogram
        assert profiled[0].accesses == sequential[0].accesses

    def test_multi_domain_histograms_match(self):
        fg = compile_columns(_zipf(tid=0))
        bg = compile_columns(StreamingTrace(2_000, 2 * MB, tid=4))
        columns = {
            name: np.concatenate([fg[name], bg[name]])
            for name in ("address", "pc", "tid", "rw")
        }
        pack = TracePack(columns, "mixed")
        profiled = WaySweep(256, 12, "hash", num_domains=3).run_pack(pack)
        sequential = _sequential_curves(pack, 256, 12, "hash", 3)
        for domain in range(3):
            assert profiled[domain].histogram == sequential[domain].histogram
            assert profiled[domain].accesses == sequential[domain].accesses

    def test_four_domain_histograms_match(self):
        pack = _four_domain_pack()
        profiled = WaySweep(256, 8, "hash", num_domains=4).run_pack(pack)
        sequential = _sequential_curves(pack, 256, 8, "hash", 4)
        for domain in range(4):
            assert profiled[domain].histogram == sequential[domain].histogram
            assert profiled[domain].accesses == 750

    @pytest.mark.parametrize("native", [True, False])
    @pytest.mark.parametrize("tid", [6, -2])
    def test_rejects_out_of_range_domains(self, tid, native):
        """A tid whose domain is outside [0, num_domains) raises under
        either native setting, before any access is profiled or
        dropped."""
        columns = compile_columns(_zipf())
        columns["tid"] = np.full(len(columns["tid"]), tid, dtype=np.int64)
        pack = TracePack(columns, f"tid{tid}")
        sweep = WaySweep(num_sets=256, num_ways=8, num_domains=2)
        with pytest.raises(ValidationError, match="outside"):
            if native:
                sweep.run_pack(pack)
            else:
                without_native(lambda: sweep.run_pack(pack))

    def test_one_domain_takes_every_tid(self):
        """With a single domain every access is domain 0, as in
        WaySweep.run."""
        pack = get_pack(_zipf(tid=6))
        curve = WaySweep(256, 8, "hash").run_pack(pack)[0]
        assert curve.accesses == len(pack)

    def test_empty_pack(self):
        trace = ZipfTrace(0, 1 * MB)
        pack = TracePack(compile_columns(trace), "empty")
        curve = WaySweep(64, 4, "mod").run_pack(pack)[0]
        assert curve.accesses == 0
        assert sum(curve.histogram) == 0

    def test_rejects_bad_configuration(self):
        pack = get_pack(_zipf())
        with pytest.raises(ConfigurationError):
            WaySweep(64, 0, "hash").run_pack(pack)
        with pytest.raises(ConfigurationError):
            WaySweep(64, 4, "hash", num_domains=0).run_pack(pack)


class TestSweepPack:
    def test_equals_run_single(self):
        """WaySweep.run_pack and run_single agree hit for hit."""
        sweep = WaySweep()
        from_generator = sweep.run_single(_zipf)
        from_pack = sweep.run_pack(get_pack(_zipf()))[0]
        for ways in range(1, 13):
            assert from_pack.hits(ways) == from_generator.hits(ways)
        assert from_pack.accesses == from_generator.accesses
