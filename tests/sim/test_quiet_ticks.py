"""Quiet controller ticks: held stretches of a dynamic run skip the
controller, and every other configuration keeps per-tick calls.

``Machine(memoize=False)`` solves and calls the controller on every
tick, so it is the reference each run here must match bit for bit.
"""

import dataclasses

import pytest

from repro.core.dynamic import DynamicPartitionController
from repro.energy.rapl import RAPL_ENERGY_UNIT_J, RaplDomain
from repro.runtime.resctrl import ResctrlFilesystem
from repro.sim import Machine
from repro.workloads import get_application
from repro.workloads.churn import ChurnController, ChurnEvent, ChurnSchedule

from .._pairs import dynamic_pair, run_bits

# A phased foreground (two phases) over a flat background: ~1,100 ticks,
# 20 controller actions, and long held stretches between them.
FG, BG = "459.GemsFDTD", "ferret"


def _ticks(pair, step_s=0.1):
    return round(pair.makespan_s / step_s)


def _both(fg=FG, bg=BG, make_controller=None, machine_options=None, **options):
    """The same run with the memo on and off: ``(on, off)`` triples."""
    runs = []
    for memoize in (True, False):
        machine = Machine(memoize=memoize, **(machine_options or {}))
        controller = make_controller() if make_controller else None
        runs.append(dynamic_pair(machine, fg, bg, controller, **options))
    return runs


def _count_deposits(monkeypatch):
    """Sum every joule the engine deposits, per RAPL domain."""
    deposited = {"package": 0.0, "pp0": 0.0}
    deposit = RaplDomain.deposit

    def counted(self, joules, times=1):
        for _ in range(times):
            deposited[self.name] += joules
        deposit(self, joules, times)

    monkeypatch.setattr(RaplDomain, "deposit", counted)
    return deposited


class TestQuietFlag:
    def _controller(self):
        return DynamicPartitionController("fg", "bg")

    def test_not_quiet_before_any_tick(self):
        assert self._controller().quiet is False

    def test_period_not_elapsed_is_not_quiet(self):
        ctrl = self._controller()
        ctrl.on_tick(0.05, 0.05, {"fg": {"mpki": 5.0}})
        assert not ctrl.quiet  # the period accumulator moved

    def test_a_decision_is_not_quiet(self):
        ctrl = self._controller()
        ctrl.on_tick(0.1, 0.1, {"fg": {"mpki": 5.0}})  # baseline sample
        assert not ctrl.quiet
        assert ctrl.on_tick(0.2, 0.1, {"fg": {"mpki": 5.0}}) is not None
        assert not ctrl.quiet  # a shrink

    def test_held_floor_goes_quiet_and_stays_quiet(self):
        ctrl = self._controller()
        t = 0.0
        while not ctrl.quiet:
            t += 0.1
            ctrl.on_tick(t, 0.1, {"fg": {"mpki": 5.0}})
            assert t < 10.0
        assert ctrl.fg_ways == ctrl.min_fg_ways
        state = ctrl._state()
        for _ in range(5):
            t += 0.1
            assert ctrl.on_tick(t, 0.1, {"fg": {"mpki": 5.0}}) is None
            assert ctrl.quiet
            assert ctrl._state() == state

    def test_a_resctrl_publisher_is_never_quiet(self):
        fs = ResctrlFilesystem()
        fs.create_group("fg")
        fs.create_group("bg")
        ctrl = DynamicPartitionController("fg", "bg", resctrl=fs)
        for tick in range(1, 60):
            ctrl.on_tick(tick / 10, 0.1, {"fg": {"mpki": 5.0, "occupancy_mb": 1.0}})
            assert not ctrl.quiet
        assert ctrl.fg_ways == ctrl.min_fg_ways

    def test_a_new_sample_ends_the_quiet(self):
        ctrl = self._controller()
        t = 0.0
        while not ctrl.quiet:
            t += 0.1
            ctrl.on_tick(t, 0.1, {"fg": {"mpki": 5.0}})
        ctrl.on_tick(t + 0.1, 0.1, {"fg": {"mpki": 5.01}})
        assert not ctrl.quiet


class TestQuietStretch:
    def test_skips_most_controller_calls_on_a_phased_pair(self):
        """The gain: held, quiet ticks make no ``on_tick`` call."""
        pair, controller, calls = dynamic_pair(
            Machine(), "429.mcf", "streamcluster"
        )
        assert controller.actions
        assert _ticks(pair) >= 10 * calls

    def test_held_ticks_still_count_as_memo_hits(self):
        machine = Machine()
        pair, _, calls = dynamic_pair(machine, FG, BG)
        assert machine.memo.hits + machine.memo.misses == _ticks(pair)
        assert calls < _ticks(pair)

    def test_three_period_steps_match_per_tick_calls(self):
        """``step_s=0.3`` overshoots the period, so every tick decides
        and the reset accumulator is part of the quiet fixed point."""
        (a, ca, calls_on), (b, cb, calls_off) = _both(step_s=0.3)
        assert run_bits(a, ca) == run_bits(b, cb)
        assert calls_off == _ticks(b, 0.3)
        assert calls_on < calls_off

    def test_long_run_polls_rapl_through_the_stretch(self, monkeypatch):
        """A controlled run that deposits several counter wraps of energy
        in quiet stretches still reports all of it."""
        deposited = _count_deposits(monkeypatch)
        fg = get_application("ferret")
        fg = dataclasses.replace(fg, instructions=fg.instructions * 20)
        pair, _, calls = dynamic_pair(Machine(), fg, "fop")
        assert deposited["package"] > 2 * 65536
        assert calls < _ticks(pair) / 10
        assert abs(pair.socket_energy_j - deposited["package"]) <= RAPL_ENERGY_UNIT_J
        assert abs(pair.pp0_energy_j - deposited["pp0"]) <= RAPL_ENERGY_UNIT_J


class TestFoldedMeters:
    """A quiet stretch advances each meter once for all its ticks,
    with the same float additions as per-tick calls."""

    @staticmethod
    def _meters(monkeypatch):
        """Every WallMeter and RaplDomain a run builds."""
        from repro.energy.wall import WallMeter

        built = []
        for cls in (WallMeter, RaplDomain):
            init = cls.__init__

            def recording(self, *args, _init=init, **kwargs):
                _init(self, *args, **kwargs)
                built.append(self)

            monkeypatch.setattr(cls, "__init__", recording)
        return built

    @pytest.mark.parametrize("scale", [1, 10])
    def test_meters_equal_per_tick_reference(self, monkeypatch, scale):
        """Wall energies and clocks and raw RAPL accumulators equal the
        memo-off run's bit for bit; at 10x ``ferret`` the package
        counter wraps inside quiet stretches."""
        meters = self._meters(monkeypatch)
        fg = get_application("ferret")
        fg = dataclasses.replace(fg, instructions=fg.instructions * scale)
        runs = []
        for memoize in (True, False):
            del meters[:]
            pair, controller, calls = dynamic_pair(
                Machine(memoize=memoize), fg, "fop"
            )
            runs.append((run_bits(pair, controller), calls,
                         [repr(vars(m)) for m in meters]))
        (on, calls_on, meters_on), (off, calls_off, meters_off) = runs
        assert on == off
        assert meters_on == meters_off
        assert calls_on < calls_off / 10
        assert len(meters_on) == 3  # package, pp0, wall
        if scale == 10:
            assert pair.socket_energy_j > 65536


class TestPerTickFallbacks:
    """Configurations a quiet tick cannot vouch for keep every call and
    still match the reference bit for bit."""

    def _assert_per_tick(self, runs, step_s=0.1):
        (a, ca, calls_on), (b, cb, calls_off) = runs
        assert run_bits(a, ca) == run_bits(b, cb)
        assert calls_on == calls_off == _ticks(b, step_s)

    def test_half_period_steps(self):
        """With ``step_s=0.05`` the period accumulator alternates, so no
        tick leaves the controller unchanged."""
        self._assert_per_tick(_both(step_s=0.05), 0.05)

    def test_noisy_samples(self):
        self._assert_per_tick(
            _both(machine_options={"mpki_noise_std": 0.05, "noise_seed": 7})
        )

    def test_timeline(self):
        runs = _both(timeline=True)
        self._assert_per_tick(runs)
        assert len(runs[0][0].timeline) == _ticks(runs[0][0])

    def test_resctrl_reads_equal_occupancy(self):
        readings = []

        def make_controller():
            fs = ResctrlFilesystem()
            fs.create_group("fg")
            fs.create_group("bg")
            log = []
            readings.append(log)
            update = fs.update_occupancy
            fs.update_occupancy = lambda r: (log.append(dict(r)), update(r))
            return DynamicPartitionController(FG, BG, resctrl=fs)

        self._assert_per_tick(_both(make_controller=make_controller))
        on, off = readings
        assert on == off
        assert len(on) > 1000

    def test_churn_controller(self):
        schedule = ChurnSchedule(events=(
            ChurnEvent(tenant=BG, epoch=100, action="join"),
            ChurnEvent(tenant=BG, epoch=300, action="leave"),
        ))
        runs = _both(make_controller=lambda: ChurnController((FG, BG), schedule))
        self._assert_per_tick(runs)
        assert [a.reason for a in runs[0][1].actions] == [
            f"join:{BG}", f"leave:{BG}"
        ]

    def test_subclassed_controller(self):
        class Audited(DynamicPartitionController):
            pass

        self._assert_per_tick(_both(make_controller=lambda: Audited(FG, BG)))


class TestRaplWraps:
    @pytest.mark.parametrize("scale", [7, 10])
    def test_long_solo_run_reports_every_joule(self, monkeypatch, scale):
        """A run longer than one 65,536 J counter wrap loses none."""
        deposited = _count_deposits(monkeypatch)
        app = get_application("ferret")
        app = dataclasses.replace(app, instructions=app.instructions * scale)
        result = Machine().run_solo(app, threads=1, ways=12)
        assert deposited["package"] > 65536
        assert abs(result.socket_energy_j - deposited["package"]) <= RAPL_ENERGY_UNIT_J
        assert abs(result.pp0_energy_j - deposited["pp0"]) <= RAPL_ENERGY_UNIT_J
