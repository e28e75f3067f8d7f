import pytest

from repro.core.dynamic import DynamicPartitionController
from repro.runtime.harness import paper_pair_allocations
from repro.util.errors import SchedulingError
from repro.workloads import get_application


class TestSoloRuns:
    def test_completes_all_instructions(self, machine):
        app = get_application("fop")
        result = machine.run_solo(app, threads=4)
        assert result.instructions == pytest.approx(app.instructions, rel=1e-6)
        assert result.runtime_s > 0

    def test_deterministic(self, machine):
        app = get_application("batik")
        a = machine.run_solo(app, threads=4)
        b = machine.run_solo(app, threads=4)
        assert a.runtime_s == b.runtime_s
        assert a.socket_energy_j == b.socket_energy_j

    def test_more_cache_not_slower(self, machine):
        app = get_application("471.omnetpp")
        small = machine.run_solo(app, threads=1, ways=2)
        large = machine.run_solo(app, threads=1, ways=12)
        assert large.runtime_s <= small.runtime_s

    def test_energy_positive_and_consistent(self, machine):
        result = machine.run_solo(get_application("batik"), threads=4)
        assert result.socket_energy_j > 0
        assert result.wall_energy_j > result.socket_energy_j
        # Average wall power should be in a sane envelope.
        avg = result.wall_energy_j / result.runtime_s
        assert 40 < avg < 250

    def test_phased_app_mpki_varies_with_timeline(self, machine):
        app = get_application("429.mcf")
        pair_alloc, bg_alloc = paper_pair_allocations(app, get_application("swaptions"))
        pair = machine.run_pair(
            app, get_application("swaptions"), pair_alloc, bg_alloc, timeline=True
        )
        mpkis = {round(p.per_app["429.mcf"]["mpki"], 1) for p in pair.timeline}
        assert len(mpkis) >= 2  # phases visible


class TestPairRuns:
    def test_core_overlap_rejected(self, machine):
        fg = get_application("ferret")
        bg = get_application("batik")
        fg_alloc, _ = paper_pair_allocations(fg, bg)
        with pytest.raises(SchedulingError):
            machine.run_pair(fg, bg, fg_alloc, fg_alloc)

    def test_continuous_background_restarts(self, machine):
        fg = get_application("429.mcf")  # long
        bg = get_application("fop")  # short loop
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
        pair = machine.run_pair(fg, bg, fg_alloc, bg_alloc, bg_continuous=True)
        assert pair.bg.instructions > bg.instructions  # looped at least once
        assert pair.makespan_s == pytest.approx(pair.fg.runtime_s, rel=1e-6)

    def test_once_mode_runs_both_exactly_once(self, machine):
        fg = get_application("fop")
        bg = get_application("batik")
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
        pair = machine.run_pair(fg, bg, fg_alloc, bg_alloc, bg_continuous=False)
        assert pair.fg.instructions == pytest.approx(fg.instructions, rel=1e-6)
        assert pair.bg.instructions == pytest.approx(bg.instructions, rel=1e-6)
        assert pair.makespan_s >= max(pair.fg.runtime_s, pair.bg.runtime_s) - 1e-9

    def test_self_pair_allowed(self, machine):
        app = get_application("dedup")
        fg_alloc, bg_alloc = paper_pair_allocations(app, app)
        pair = machine.run_pair(app, app, fg_alloc, bg_alloc)
        assert pair.fg.runtime_s > 0
        assert pair.bg.name == "dedup#2"

    def test_interference_slows_foreground(self, machine):
        fg = get_application("471.omnetpp")
        bg = get_application("canneal")
        solo = machine.run_solo(fg, threads=1)
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
        pair = machine.run_pair(fg, bg, fg_alloc, bg_alloc)
        assert pair.fg.runtime_s > solo.runtime_s

    def test_bg_rate_definition(self, machine):
        fg = get_application("429.mcf")
        bg = get_application("batik")
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
        pair = machine.run_pair(fg, bg, fg_alloc, bg_alloc, bg_continuous=True)
        assert pair.bg_rate_ips == pytest.approx(
            pair.bg.instructions / pair.fg.runtime_s, rel=1e-9
        )


class TestManagedRuns:
    def test_controller_changes_masks(self, machine):
        fg = get_application("429.mcf")
        bg = get_application("batik")
        controller = DynamicPartitionController(fg.name, bg.name)
        masks = controller.masks()
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
        pair = machine.run_pair(
            fg,
            bg,
            fg_alloc.with_mask(masks[fg.name]),
            bg_alloc.with_mask(masks[bg.name]),
            controller=controller,
        )
        assert len(controller.actions) > 3
        assert pair.fg.runtime_s > 0

    def test_stepped_and_event_driven_agree(self, machine):
        """Without a controller, 100 ms stepping must match the exact
        event-driven run closely."""
        fg = get_application("batik")
        bg = get_application("dedup")
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
        exact = machine.run_pair(fg, bg, fg_alloc, bg_alloc)
        stepped = machine.run_pair(fg, bg, fg_alloc, bg_alloc, step_s=0.1)
        assert stepped.fg.runtime_s == pytest.approx(exact.fg.runtime_s, rel=0.02)
