"""User-defined application models."""

import pytest

from repro.util.errors import ValidationError
from repro.workloads.base import Phase
from repro.workloads.custom import PATTERNS, from_measurements, make_application


class TestMakeApplication:
    def test_builds_a_runnable_model(self, machine):
        app = make_application(
            "my-service", working_set_mb=2.0, memory_intensity=8.0
        )
        result = machine.run_solo(app, threads=4)
        assert result.runtime_s > 0
        assert result.mpki > 0

    def test_working_set_shapes_the_curve(self):
        small = make_application("s", 1.0, 8.0)
        large = make_application("l", 5.0, 8.0)
        # At 2 MB the small-WS app has converged; the large one hasn't.
        assert small.miss_ratio(2.0) - small.miss_ratio(6.0) < 0.1
        assert large.miss_ratio(2.0) - large.miss_ratio(6.0) > 0.1

    def test_patterns_set_coupled_parameters(self):
        stream = make_application("st", 2.0, 20.0, pattern="streaming")
        chase = make_application("ch", 2.0, 20.0, pattern="pointer-chase")
        assert stream.mlp > chase.mlp
        assert stream.pf_coverage > chase.pf_coverage

    def test_zero_parallelism_is_single_threaded(self):
        app = make_application("serial", 1.0, 5.0, parallelism=0.0)
        assert app.scalability.single_threaded
        assert app.speedup(8) == 1.0

    def test_phases_accepted(self):
        app = make_application(
            "phased",
            2.0,
            8.0,
            phases=(Phase(0.5, apki_mult=0.5), Phase(0.5, apki_mult=2.0)),
        )
        assert app.has_phases()

    def test_custom_app_interoperates_with_policies(self, machine):
        from .._pairs import pair_policy
        from repro.workloads import get_application

        service = make_application(
            "latency-service",
            working_set_mb=4.0,
            memory_intensity=15.0,
            parallelism=0.9,
            pattern="random",
        )
        outcome = pair_policy(
            machine, service, get_application("canneal"), "biased"
        )
        assert 1 <= outcome.fg_ways <= 11

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_application("x", 1.0, 5.0, pattern="quantum")
        with pytest.raises(ValidationError):
            make_application("x", -1.0, 5.0)
        with pytest.raises(ValidationError):
            make_application("x", 1.0, -5.0)
        with pytest.raises(ValidationError):
            make_application("x", 1.0, 5.0, reuse_fraction=2.0)

    def test_all_patterns_buildable(self):
        for pattern in PATTERNS:
            app = make_application(f"p-{pattern}", 2.0, 10.0, pattern=pattern)
            assert app.mlp >= 1.0


class TestFromMeasurements:
    def test_fitted_curve_tracks_points(self):
        points = {1.0: 0.5, 2.0: 0.3, 3.0: 0.2, 4.0: 0.15, 6.0: 0.12}
        app = from_measurements("measured", points, memory_intensity=12.0)
        for mb, ratio in points.items():
            assert app.miss_ratio(mb) == pytest.approx(ratio, abs=0.05)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            from_measurements("x", {1.0: 0.5, 6.0: 0.1}, 10.0)

    def test_measured_app_runs(self, machine):
        points = {1.0: 0.6, 2.0: 0.35, 4.0: 0.2, 6.0: 0.15}
        app = from_measurements("measured2", points, memory_intensity=10.0)
        result = machine.run_solo(app, threads=4)
        assert result.runtime_s > 0
