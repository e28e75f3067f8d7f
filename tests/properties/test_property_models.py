"""Property-based tests over the workload models."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import MissRatioCurve, Phase, ScalabilityModel


@st.composite
def mrcs(draw):
    floor = draw(st.floats(0.0, 0.8, allow_nan=False))
    n = draw(st.integers(0, 3))
    components = [
        (
            draw(st.floats(0.0, 0.9, allow_nan=False)),
            draw(st.floats(0.1, 5.0, allow_nan=False)),
        )
        for _ in range(n)
    ]
    return MissRatioCurve(floor, components)


@st.composite
def scal_models(draw):
    return ScalabilityModel(
        parallel_fraction=draw(st.floats(0.0, 1.0, allow_nan=False)),
        smt_gain=draw(st.floats(1.0, 1.6, allow_nan=False)),
        sync_overhead=draw(st.floats(0.0, 0.05, allow_nan=False)),
        saturation_threads=draw(st.integers(1, 8)),
    )


class TestMrcProperties:
    @settings(max_examples=200, deadline=None)
    @given(mrc=mrcs(), capacities=st.lists(st.floats(0.1, 6.0), min_size=2, max_size=8))
    def test_monotone_nonincreasing(self, mrc, capacities):
        capacities = sorted(capacities)
        values = [mrc.value(c) for c in capacities]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(mrc=mrcs(), capacity=st.floats(0.01, 10.0))
    def test_values_are_ratios(self, mrc, capacity):
        value = mrc.value(capacity)
        assert 0.0 <= value <= 1.0
        assert not math.isnan(value)

    @settings(max_examples=100, deadline=None)
    @given(mrc=mrcs())
    def test_working_set_is_consistent(self, mrc):
        ws = mrc.working_set_mb()
        assert 0.5 <= ws <= 6.0
        # Beyond the working set, little improvement remains.
        span = mrc.span()
        if span > 1e-6:
            remaining = mrc.value(ws) - mrc.value(6.0)
            assert remaining <= span * 0.021 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(mrc=mrcs(), capacity=st.floats(0.1, 6.0))
    def test_direct_mapped_never_better(self, mrc, capacity):
        assert mrc.value(capacity, ways=1) >= mrc.value(capacity, ways=2)


class TestScalabilityProperties:
    @settings(max_examples=200, deadline=None)
    @given(model=scal_models(), threads=st.integers(1, 8))
    def test_speedup_at_least_one(self, model, threads):
        assert model.speedup(threads) >= 1.0

    @settings(max_examples=200, deadline=None)
    @given(model=scal_models())
    def test_speedup_bounded_by_hardware(self, model):
        for threads in range(1, 9):
            assert model.speedup(threads) <= model.hardware_parallelism(8) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(model=scal_models())
    def test_low_overhead_curves_monotone(self, model):
        if model.sync_overhead == 0.0:
            speedups = [model.speedup(t) for t in range(1, 9)]
            for a, b in zip(speedups, speedups[1:]):
                assert b >= a - 1e-9


@st.composite
def phased_apps(draw):
    """An application with uneven, possibly tiny phase weights, which
    ``ApplicationModel`` normalises to sum to one."""
    import dataclasses

    from repro.workloads import get_application

    weights = draw(
        st.lists(
            st.one_of(
                st.floats(1e-15, 1e-9), st.floats(1e-9, 1.0), st.floats(1.0, 50.0)
            ),
            min_size=1,
            max_size=7,
        )
    )
    return dataclasses.replace(
        get_application("x264"), phases=tuple(Phase(weight=w) for w in weights)
    )


def _probes(app, extra):
    """Progress values on and next to every phase boundary and the
    ``1 - 1e-12`` clamp, at 0, above 1, and ``extra``."""
    edges, cumulative = [0.0, 1.0 - 1e-12, 1.0], 0.0
    for phase in app.phases:
        cumulative += phase.weight
        edges.append(cumulative)
    probes = [1.5, 7.0] + list(extra)
    for edge in edges:
        probes += [edge, math.nextafter(edge, -1.0), math.nextafter(edge, 2.0)]
    return [p for p in probes if p >= 0.0]


class TestPhaseWindowProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        app=phased_apps(),
        extra=st.lists(st.floats(0.0, 2.0), max_size=4),
    )
    def test_window_is_exactly_the_phase(self, app, extra):
        """``lo <= p < hi`` holds exactly where ``phase_index_at(p)`` is
        the index at the progress the window was built from."""
        probes = _probes(app, extra)
        indices = [app.phase_index_at(p) for p in probes]
        for origin, index in zip(probes, indices):
            lo, hi = app.phase_window(origin)
            for p, at in zip(probes, indices):
                assert (lo <= p < hi) == (at == index), (origin, p, lo, hi)
