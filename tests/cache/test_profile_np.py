"""The pack profiler against the sequential WayProfiler."""

import numpy as np
import pytest

from repro.cache import profile_np
from repro.cache.profile import WayProfiler, WaySweep
from repro.cache.profile_np import profile_pack
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.units import MB
from repro.workloads.tracepack import TracePack, compile_columns, get_pack
from repro.workloads.trace import StreamingTrace, ZipfTrace

from .._native import native_available, without_native


@pytest.fixture(autouse=True)
def _private_cache(monkeypatch, tmp_path):
    from repro.workloads import tracepack

    monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))


@pytest.fixture()
def native_returns(monkeypatch):
    """Every value ``_profile_pack_native`` returns during the test."""
    returns = []
    inner = profile_np._profile_pack_native

    def recording(*args):
        result = inner(*args)
        returns.append(result)
        return result

    monkeypatch.setattr(profile_np, "_profile_pack_native", recording)
    return returns


def _assert_native_ran(returns):
    """With native kernels, the C profiler (not the WayProfiler
    fallback) produced the histograms under test."""
    if native_available():
        assert returns and all(r is not None for r in returns)


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


class TestProfilePack:
    @pytest.mark.parametrize("indexing", ["hash", "mod"])
    def test_matches_sequential_profiler_exactly(
        self, indexing, native_returns
    ):
        pack = get_pack(_zipf())
        profiled = profile_pack(pack, 512, 12, indexing)
        _assert_native_ran(native_returns)
        sequential = _sequential_curves(pack, 512, 12, indexing, 1)
        assert profiled[0].histogram == sequential[0].histogram
        assert profiled[0].accesses == sequential[0].accesses

    def test_multi_domain_histograms_match(self, native_returns):
        fg = compile_columns(_zipf(tid=0))
        bg = compile_columns(StreamingTrace(2_000, 2 * MB, tid=4))
        columns = {
            name: np.concatenate([fg[name], bg[name]])
            for name in ("address", "pc", "tid", "rw")
        }
        pack = TracePack(columns, "mixed")
        profiled = profile_pack(pack, 256, 12, "hash", num_domains=3)
        _assert_native_ran(native_returns)
        sequential = _sequential_curves(pack, 256, 12, "hash", 3)
        for domain in range(3):
            assert profiled[domain].histogram == sequential[domain].histogram
            assert profiled[domain].accesses == sequential[domain].accesses

    @pytest.mark.parametrize("native", [True, False])
    @pytest.mark.parametrize("tid", [6, -2])
    def test_rejects_out_of_range_domains(self, tid, native):
        """A tid whose domain is outside [0, num_domains) raises on both
        paths, before any access is profiled or dropped."""
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
        curve = profile_pack(pack, 256, 8, "hash")[0]
        assert curve.accesses == len(pack)

    def test_empty_pack(self):
        trace = ZipfTrace(0, 1 * MB)
        pack = TracePack(compile_columns(trace), "empty")
        curve = profile_pack(pack, 64, 4, "mod")[0]
        assert curve.accesses == 0
        assert sum(curve.histogram) == 0

    def test_rejects_bad_configuration(self):
        pack = get_pack(_zipf())
        with pytest.raises(ConfigurationError):
            profile_pack(pack, 64, 0, "hash")
        with pytest.raises(ConfigurationError):
            profile_pack(pack, 64, 4, "hash", num_domains=0)


class TestSweepPack:
    def test_equals_run_single(self):
        """WaySweep.run_pack and run_single agree hit for hit."""
        sweep = WaySweep()
        from_generator = sweep.run_single(_zipf)
        from_pack = sweep.run_pack(get_pack(_zipf()))[0]
        for ways in range(1, 13):
            assert from_pack.hits(ways) == from_generator.hits(ways)
        assert from_pack.accesses == from_generator.accesses
