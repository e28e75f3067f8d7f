import math

import pytest

from repro.workloads.base import (
    ApplicationModel,
    MissRatioCurve,
    Phase,
    ScalabilityModel,
)
from repro.util.errors import ValidationError


class TestScalabilityModel:
    def test_one_thread_is_unity(self):
        model = ScalabilityModel(parallel_fraction=0.9)
        assert model.speedup(1) == 1.0

    def test_monotone_up_to_saturation(self):
        model = ScalabilityModel(parallel_fraction=0.95)
        speedups = [model.speedup(t) for t in range(1, 9)]
        assert speedups == sorted(speedups)

    def test_single_threaded_never_scales(self):
        model = ScalabilityModel(single_threaded=True)
        assert model.speedup(8) == 1.0

    def test_saturation_plateaus(self):
        model = ScalabilityModel(parallel_fraction=0.9, saturation_threads=4)
        assert model.speedup(8) == model.speedup(4)

    def test_amdahl_limit(self):
        model = ScalabilityModel(parallel_fraction=0.5)
        assert model.speedup(8) < 2.0  # serial half caps at 2x

    def test_pow2_only_enforced(self):
        model = ScalabilityModel(pow2_only=True)
        assert model.speedup(4) > 1.0
        with pytest.raises(ValidationError):
            model.speedup(3)

    def test_smt_fills_pairwise(self):
        """3 threads = one full core (smt_gain) plus one single thread."""
        model = ScalabilityModel(smt_gain=1.4)
        assert model.hardware_parallelism(3) == pytest.approx(2.4)
        assert model.hardware_parallelism(8) == pytest.approx(5.6)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            ScalabilityModel(parallel_fraction=1.5)
        with pytest.raises(ValidationError):
            ScalabilityModel(smt_gain=0.5)
        with pytest.raises(ValidationError):
            ScalabilityModel().speedup(0)


class TestMissRatioCurve:
    def make(self):
        return MissRatioCurve(0.1, [(0.5, 1.0)])

    def test_monotone_decreasing(self):
        mrc = self.make()
        values = [mrc.value(c / 2) for c in range(1, 13)]
        assert values == sorted(values, reverse=True)

    def test_floor_reached_asymptotically(self):
        mrc = self.make()
        assert mrc.value(100.0) == pytest.approx(0.1, abs=1e-4)

    def test_no_knees(self):
        """Smoothness (Section 3.2): second differences stay small."""
        mrc = self.make()
        values = [mrc.value(0.5 + 0.25 * i) for i in range(23)]
        diffs = [values[i] - values[i + 1] for i in range(len(values) - 1)]
        assert all(d >= -1e-12 for d in diffs)
        second = [abs(diffs[i + 1] - diffs[i]) for i in range(len(diffs) - 1)]
        assert max(second) < 0.05

    def test_direct_mapped_penalty(self):
        mrc = self.make()
        assert mrc.value(0.5, ways=1) > mrc.value(0.5, ways=2)

    def test_capped_at_one(self):
        mrc = MissRatioCurve(0.9, [(0.9, 1.0)])
        assert mrc.value(0.01) == 1.0

    def test_zero_capacity_misses_everything(self):
        assert self.make().value(0.0) == 1.0

    def test_working_set_within_bounds(self):
        ws = self.make().working_set_mb()
        assert 0.5 <= ws <= 6.0

    def test_flat_curve_has_minimal_working_set(self):
        mrc = MissRatioCurve(0.3, [])
        assert mrc.working_set_mb() == 0.5

    def test_cached_working_set_equals_the_scan(self):
        """Every registry app and phase, both the first call (which
        scans) and the cached one, equal a fresh scan."""
        from repro.workloads import get_application
        from repro.workloads.registry import all_application_names

        for name in all_application_names():
            app = get_application(name)
            for phase in app.phases:
                for epsilon in (0.02, 0.1):
                    scan = app.mrc._scan_working_set(
                        epsilon, phase.ws_mult, phase.amp_mult
                    )
                    for _ in range(2):
                        assert app.working_set_mb(phase, epsilon) == scan

    def test_phase_multipliers_shift_curve(self):
        mrc = self.make()
        assert mrc.value(2.0, ws_mult=2.0) > mrc.value(2.0, ws_mult=1.0)
        assert mrc.value(2.0, amp_mult=2.0) > mrc.value(2.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MissRatioCurve(1.5, [])
        with pytest.raises(ValidationError):
            MissRatioCurve(0.1, [(-0.1, 1.0)])
        with pytest.raises(ValidationError):
            MissRatioCurve(0.1, [(0.1, 0.0)])


def make_app(**kwargs):
    defaults = dict(
        name="toy",
        suite="test",
        scalability=ScalabilityModel(parallel_fraction=0.9),
        mrc=MissRatioCurve(0.1, [(0.4, 1.0)]),
        llc_apki=10.0,
        base_cpi=1.0,
        mlp=4.0,
        instructions=1e9,
    )
    defaults.update(kwargs)
    return ApplicationModel(**defaults)


class TestApplicationModel:
    def test_default_single_phase(self):
        app = make_app()
        assert len(app.phases) == 1
        assert app.phases[0].weight == 1.0

    def test_phase_weights_normalized(self):
        app = make_app(phases=(Phase(2.0), Phase(6.0)))
        assert [p.weight for p in app.phases] == [0.25, 0.75]

    def test_phase_at_progress(self):
        app = make_app(
            phases=(Phase(0.5, name="a"), Phase(0.5, name="b"))
        )
        assert app.phase_at(0.0).name == "a"
        assert app.phase_at(0.49).name == "a"
        assert app.phase_at(0.51).name == "b"
        assert app.phase_at(1.0).name == "b"

    def test_phase_boundaries_end_at_one(self):
        app = make_app(phases=(Phase(1.0), Phase(1.0), Phase(1.0)))
        boundaries = app.phase_boundaries()
        assert boundaries[-1] == 1.0
        assert len(boundaries) == 3

    def test_apki_filtered_by_private_caches(self):
        app = make_app()
        assert app.apki(threads=8) < app.apki(threads=1)

    def test_mpki_composes_apki_and_mrc(self):
        app = make_app()
        expected = app.apki() * app.miss_ratio(2.0)
        assert app.mpki(2.0) == pytest.approx(expected)

    def test_has_phases(self):
        assert not make_app().has_phases()
        assert make_app(phases=(Phase(1), Phase(1))).has_phases()

    def test_progress_validation(self):
        with pytest.raises(ValidationError):
            make_app().phase_at(-0.1)

    def test_single_phase_index_keeps_validation(self):
        app = make_app()
        assert len(app.phases) == 1
        with pytest.raises(ValidationError):
            app.phase_index_at(-0.1)
        for progress in (0.0, 0.5, 1.0):
            assert app.phase_index_at(progress) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            make_app(llc_apki=-1)
        with pytest.raises(ValidationError):
            make_app(mlp=0.5)
        with pytest.raises(ValidationError):
            make_app(instructions=0)
        with pytest.raises(ValidationError):
            make_app(pf_coverage=1.5)
        with pytest.raises(ValidationError):
            make_app(dram_efficiency=0.0)
        with pytest.raises(ValidationError):
            make_app(cache_pressure=-1)
