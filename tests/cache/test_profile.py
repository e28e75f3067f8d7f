"""The single-pass way profiler against brute-force re-simulation.

Under true LRU the stack-distance histogram is exact: one profiling
replay must reproduce, hit for hit, what a per-allocation re-simulation
reports at every way count (the Mattson inclusion property). These
tests check that literally on several trace shapes, plus the curve
algebra, per-domain attribution, and the snapshot/delta windowing the
MRC fast path relies on.
"""

import pytest

from repro.cache.profile import (
    LLC_NUM_WAYS,
    WayCurve,
    WayProfiler,
    WaySweep,
    brute_force_hits,
    verify_profile,
)
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.units import MB
from repro.workloads.trace import (
    PointerChaseTrace,
    StencilTrace,
    StreamingTrace,
    ZipfTrace,
)

from .._refcache import CacheLevel

# Small geometry keeps the brute-force arm (W full replays) fast while
# still exercising set conflicts: 64 sets x 8 ways = 32 KB of lines.
SETS, WAYS = 64, 8

TRACES = {
    "zipf": lambda: ZipfTrace(6_000, 1 * MB, alpha=0.9, seed=11),
    "stream": lambda: StreamingTrace(6_000, 2 * MB),
    "chase": lambda: PointerChaseTrace(6_000, 256 * 1024, seed=3),
    "stencil": lambda: StencilTrace(6_000, rows=64, cols=96),
}


@pytest.mark.parametrize("name", sorted(TRACES))
@pytest.mark.parametrize("indexing", ["mod", "hash"])
class TestExactness:
    def test_profile_equals_brute_force_everywhere(self, name, indexing):
        factory = TRACES[name]
        rows = verify_profile(
            factory, num_sets=SETS, num_ways=WAYS, indexing=indexing
        )
        assert len(rows) == WAYS
        assert all(profiled == brute for _, profiled, brute in rows)

    def test_kernel_backend_agrees_as_ground_truth(self, name, indexing):
        """The kernel-level ground truth equals the same replay through
        the reference object model."""
        factory = TRACES[name]
        for ways in (1, 3, WAYS):
            reference = CacheLevel(
                "ref", SETS * ways * 64, ways, replacement="lru",
                indexing=indexing,
            )
            hits = 0
            for access in factory():
                line = access.line_address
                if reference.access(line):
                    hits += 1
                else:
                    reference.fill(line)
            assert brute_force_hits(
                factory, ways, num_sets=SETS, indexing=indexing
            ) == hits


class TestCurveAlgebra:
    def curve(self):
        return WaySweep(SETS, WAYS).run_single(TRACES["zipf"])

    def test_hits_monotonic_in_ways(self):
        curve = self.curve()
        hits = [curve.hits(w) for w in range(1, WAYS + 1)]
        assert hits == sorted(hits)
        assert hits[-1] <= curve.accesses

    def test_histogram_accounts_for_every_access(self):
        curve = self.curve()
        assert sum(curve.histogram) == curve.accesses == 6_000
        assert curve.misses(WAYS) == curve.accesses - curve.hits(WAYS)

    def test_marginal_hits_are_histogram_bins(self):
        curve = self.curve()
        assert curve.hits(1) == curve.marginal_hits(1)
        for w in range(2, WAYS + 1):
            assert curve.hits(w) - curve.hits(w - 1) == curve.marginal_hits(w)
        assert curve.curve() == {w: curve.hits(w) for w in range(1, WAYS + 1)}

    def test_out_of_range_allocations_rejected(self):
        curve = self.curve()
        for bad in (0, WAYS + 1):
            with pytest.raises(ValidationError):
                curve.hits(bad)
            with pytest.raises(ValidationError):
                curve.marginal_hits(bad)

    def test_empty_curve_miss_ratio(self):
        assert WayCurve(4, 0, [0] * 5).miss_ratio(2) == 0.0


class TestPerDomainAttribution:
    def test_interleaved_domains_match_solo_profiles(self):
        """Two tids share one profiler; each curve equals its solo run."""
        fg = lambda: ZipfTrace(4_000, 1 * MB, alpha=0.9, tid=0, seed=5)
        bg = lambda: StreamingTrace(4_000, 2 * MB, tid=2)

        def interleaved():
            for a, b in zip(fg(), bg()):
                yield a
                yield b

        sweep = WaySweep(SETS, WAYS, num_domains=2)
        combined = sweep.run(interleaved)
        solo_fg = WaySweep(SETS, WAYS).run_single(fg)
        solo_bg = WaySweep(SETS, WAYS).run_single(bg)
        assert combined[0].curve() == solo_fg.curve()
        assert combined[1].curve() == solo_bg.curve()

    def test_streaming_trace_has_no_way_utility(self):
        """The paper's motivating shape: a scan never re-references."""
        curve = WaySweep(SETS, WAYS).run_single(
            lambda: StreamingTrace(5_000, 4 * MB)
        )
        assert curve.hits(WAYS) == 0


class TestSnapshotWindowing:
    def test_delta_curve_isolates_the_measured_window(self):
        profiler = WayProfiler(SETS, WAYS)
        warm = ZipfTrace(3_000, 1 * MB, alpha=0.9, seed=8)
        measured = ZipfTrace(3_000, 1 * MB, alpha=0.9, seed=9)
        for acc in warm:
            profiler.observe(acc.line_address)
        base = profiler.snapshot()
        for acc in measured:
            profiler.observe(acc.line_address)
        window = profiler.delta_curve(base)
        assert window.accesses == 3_000
        assert sum(window.histogram) == 3_000
        # The warmed directory gives the window *more* hits than a cold
        # profile of the same accesses, never fewer.
        cold = WayProfiler(SETS, WAYS)
        for acc in ZipfTrace(3_000, 1 * MB, alpha=0.9, seed=9):
            cold.observe(acc.line_address)
        assert window.hits(WAYS) >= cold.curve().hits(WAYS)

    def test_immediate_delta_is_empty(self):
        profiler = WayProfiler(SETS, WAYS)
        profiler.observe(1)
        window = profiler.delta_curve(profiler.snapshot())
        assert window.accesses == 0
        assert sum(window.histogram) == 0


class TestValidation:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            WayProfiler(SETS, 0)
        with pytest.raises(ConfigurationError):
            WayProfiler(SETS, WAYS, num_domains=0)
        with pytest.raises(ConfigurationError):
            WayProfiler(SETS, WAYS, indexing="skew")

    def test_verify_profile_over_packs_matches_generators(
        self, monkeypatch, tmp_path
    ):
        """use_pack=True re-verifies off the compiled columns: same
        rows, and the brute-force arm never regenerates the trace."""
        from repro.workloads import tracepack

        monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))

        def factory():
            return ZipfTrace(4_000, 1 * MB, alpha=0.9, seed=13, tid=2)

        plain = verify_profile(
            factory, way_counts=[1, 4, 8], num_sets=SETS, num_ways=WAYS
        )
        packed = verify_profile(
            factory, way_counts=[1, 4, 8], num_sets=SETS, num_ways=WAYS,
            use_pack=True,
        )
        assert packed == plain

    def test_pack_profile_matches_kernel_at_llc_geometry(
        self, monkeypatch, tmp_path
    ):
        """The vectorized pack profile at the full LLC geometry (hashed
        sets, 12 ways) equals per-mask re-simulation on the kernel
        backend at every way count."""
        from repro.workloads import tracepack

        monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))

        def factory():
            return ZipfTrace(20_000, 4 * MB, alpha=0.9, seed=3)

        curve = WaySweep().run_pack(tracepack.get_pack(factory()))[0]
        ways = range(1, LLC_NUM_WAYS + 1)
        assert [curve.hits(w) for w in ways] == [
            brute_force_hits(factory, w) for w in ways
        ]

    def test_verify_profile_raises_on_forced_mismatch(self):
        """A PLRU ground truth is not stack-inclusive: must fail loudly."""

        def factory():
            return ZipfTrace(4_000, 1 * MB, alpha=0.9, seed=13)

        def broken(trace_factory, ways, **kwargs):
            return -1

        import repro.cache.profile as profile_mod

        original = profile_mod.brute_force_hits
        profile_mod.brute_force_hits = broken
        try:
            with pytest.raises(ValidationError):
                verify_profile(factory, num_sets=SETS, num_ways=WAYS)
        finally:
            profile_mod.brute_force_hits = original
