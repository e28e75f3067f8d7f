"""Property-based tests over the phase detector and dynamic controller."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicPartitionController
from repro.core.phase import PhaseDetector

mpki_streams = st.lists(st.floats(0.0, 200.0, allow_nan=False), min_size=1, max_size=200)


class TestDetectorProperties:
    @settings(max_examples=150, deadline=None)
    @given(stream=mpki_streams)
    def test_outputs_are_protocol_codes(self, stream):
        detector = PhaseDetector()
        for mpki in stream:
            assert detector.update(mpki) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(stream=mpki_streams)
    def test_two_only_fires_from_stable_state(self, stream):
        """A '2' (phase start) can only follow a settled detector."""
        detector = PhaseDetector()
        previous_state = detector.new_phase
        for mpki in stream:
            result = detector.update(mpki)
            if result == 2:
                assert previous_state == 0
            previous_state = detector.new_phase

    @settings(max_examples=100, deadline=None)
    @given(level=st.floats(0.1, 100.0), n=st.integers(2, 50))
    def test_constant_stream_never_fires(self, level, n):
        detector = PhaseDetector()
        assert all(detector.update(level) == 0 for _ in range(n))


class TestControllerProperties:
    @settings(max_examples=100, deadline=None)
    @given(stream=mpki_streams)
    def test_ways_always_within_bounds(self, stream):
        ctrl = DynamicPartitionController("fg", "bg")
        t = 0.0
        for mpki in stream:
            t += ctrl.period_s
            ctrl.decide(t, mpki)
            assert ctrl.min_fg_ways <= ctrl.fg_ways <= ctrl.max_fg_ways
            masks = ctrl.masks()
            assert masks["fg"].count + masks["bg"].count == 12
            assert not masks["fg"].overlaps(masks["bg"])

    @settings(max_examples=100, deadline=None)
    @given(stream=mpki_streams)
    def test_allocation_moves_one_way_per_decision(self, stream):
        """Except for phase-start expansion, steps are single ways."""
        ctrl = DynamicPartitionController("fg", "bg")
        t, last = 0.0, ctrl.fg_ways
        for mpki in stream:
            t += ctrl.period_s
            ctrl.decide(t, mpki)
            step = abs(ctrl.fg_ways - last)
            assert step <= 1 or ctrl.fg_ways == ctrl.max_fg_ways
            last = ctrl.fg_ways

    @settings(max_examples=60, deadline=None)
    @given(stream=mpki_streams)
    def test_actions_have_monotonic_timestamps(self, stream):
        ctrl = DynamicPartitionController("fg", "bg")
        t = 0.0
        for mpki in stream:
            t += ctrl.period_s
            ctrl.decide(t, mpki)
        times = [a.time_s for a in ctrl.actions]
        assert times == sorted(times)


@st.composite
def phased_apps(draw):
    """A representative app, shortened to at most ~400 ticks, with 1-4
    random phases of its own."""
    import dataclasses

    from repro.workloads import get_application
    from repro.workloads.base import Phase

    app = get_application(
        draw(st.sampled_from(["429.mcf", "459.GemsFDTD", "ferret", "dedup"]))
    )
    phases = draw(st.lists(
        st.builds(
            Phase,
            weight=st.floats(0.1, 1.0),
            apki_mult=st.floats(0.3, 3.0),
            ws_mult=st.floats(0.5, 2.0),
            amp_mult=st.floats(0.5, 1.5),
        ),
        min_size=1,
        max_size=4,
    ))
    instructions = app.instructions * draw(st.floats(0.03, 0.15))
    return dataclasses.replace(app, phases=tuple(phases), instructions=instructions)


class TestQuietStretchProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        fg=phased_apps(),
        bg=st.sampled_from(["429.mcf", "fop", "batik", "dedup"]),
        thr1=st.floats(0.005, 0.1),
        thr2=st.floats(0.005, 0.1),
        thr3=st.floats(0.01, 0.15),
        comparison=st.sampled_from(["baseline", "per-step"]),
    )
    def test_skipped_ticks_match_per_tick_calls(
        self, fg, bg, thr1, thr2, thr3, comparison
    ):
        """Whatever the phases and thresholds, a memoized run that skips
        its quiet ticks measures and decides what a run calling the
        controller on every tick does, bit for bit."""
        from repro.sim import Machine

        from .._pairs import dynamic_pair, run_bits

        bg_name = bg if bg != fg.name else f"{bg}#2"
        runs = []
        for memoize in (True, False):
            controller = DynamicPartitionController(
                fg.name, bg_name, thr3=thr3, comparison=comparison,
                detector=PhaseDetector(thr1=thr1, thr2=thr2),
            )
            runs.append(dynamic_pair(Machine(memoize=memoize), fg, bg, controller))
        (a, ca, calls_on), (b, cb, calls_off) = runs
        assert run_bits(a, ca) == run_bits(b, cb)
        assert calls_on <= calls_off
