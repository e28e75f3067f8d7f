"""End-to-end flows across the whole stack."""

import pytest

from repro import (
    AnalyticalBackend,
    CoScheduleHarness,
    DynamicPartitionController,
    Machine,
    ResctrlFilesystem,
    get_application,
    run_policy,
)

from .._pairs import pair_policy


class TestQuickstartFlow:
    def test_public_api_roundtrip(self, machine):
        backend = AnalyticalBackend(machine)
        pair = AnalyticalBackend.group_spec(["471.omnetpp", "ferret"])
        shared = run_policy(backend, pair, "shared")
        biased = run_policy(backend, pair, "biased")
        assert biased.fg_runtime_s <= shared.fg_runtime_s
        assert biased.pair.socket_energy_j > 0


class TestResctrlControllerStack:
    def test_full_stack_run(self, machine):
        """resctrl groups -> MSRs -> controller -> engine, end to end."""
        resctrl = ResctrlFilesystem()
        harness = CoScheduleHarness(machine, resctrl=resctrl)
        fg = get_application("429.mcf")
        bg = get_application("batik")
        controller = DynamicPartitionController(
            fg_name=fg.name, bg_name=bg.name, resctrl=resctrl
        )
        pair = harness.run(fg, bg, controller=controller)
        assert pair.fg.runtime_s > 0
        assert controller.actions
        # The filesystem reflects the controller's final decision.
        assert resctrl.group("fg").mask.count == controller.fg_ways
        # And the masks were pushed down to the CAT MSRs.
        fg_clos = resctrl.group("fg").clos
        assert resctrl.msr.clos_mask(fg_clos) == resctrl.group("fg").mask.bits
        # mon_data occupancy readings were refreshed during the run.
        assert resctrl.group("fg").llc_occupancy_bytes() > 0
        assert resctrl.group("bg").llc_occupancy_bytes() > 0


class TestCrossEngineConsistency:
    def test_address_level_cache_agrees_with_mrc_direction(self):
        """The trace-driven simulator and the statistical models must
        agree that more ways -> fewer misses for a reuse-heavy pattern."""
        from repro.cache import CacheHierarchy, WayMask
        from repro.workloads.trace import ZipfTrace
        from repro.util.units import MB

        def miss_ratio(ways):
            hierarchy = CacheHierarchy()
            hierarchy.set_prefetchers(enabled=False)
            hierarchy.set_way_mask(0, WayMask.contiguous(ways, 0))
            trace = list(ZipfTrace(40_000, 8 * MB, alpha=1.1, seed=9))
            hierarchy.run_trace(trace)  # warm
            totals = hierarchy.run_trace(trace)
            return totals["llc_misses"] / totals["accesses"]

        assert miss_ratio(12) < miss_ratio(2) * 0.9

    def test_energy_accounting_is_consistent(self, machine):
        result = machine.run_solo(get_application("batik"), threads=4)
        # Wall includes PSU overhead and rest-of-system: always bigger.
        assert result.wall_energy_j > result.socket_energy_j * 1.2

    def test_race_to_halt_visible_end_to_end(self, machine):
        """Giving a scalable app more cores reduces total energy even
        though instantaneous power rises (Section 4)."""
        app = get_application("blackscholes")
        one = machine.run_solo(app, threads=1)
        eight = machine.run_solo(app, threads=8)
        assert eight.runtime_s < one.runtime_s
        assert eight.socket_energy_j < one.socket_energy_j

    def test_useless_threads_waste_energy(self, machine):
        """...but threads that do not speed a single-threaded app up
        only burn power (Section 4)."""
        app = get_application("429.mcf")
        one = machine.run_solo(app, threads=1)
        eight = machine.run_solo(app, threads=8)
        assert eight.runtime_s == pytest.approx(one.runtime_s, rel=0.01)
        assert eight.socket_energy_j >= one.socket_energy_j


class TestIsolationClaims:
    def test_partitioning_cannot_fix_bandwidth_contention(self, machine):
        """Section 8: worst-case slowdowns under partitioning come from
        bandwidth-sensitive apps — the LLC policy cannot remove them."""
        fg = get_application("462.libquantum")
        bg = get_application("stream_uncached")
        solo = machine.run_solo(fg, threads=1)
        shared = pair_policy(machine, fg, bg, "shared")
        biased = pair_policy(machine, fg, bg, "biased")
        shared_slowdown = shared.fg_runtime_s / solo.runtime_s
        biased_slowdown = biased.fg_runtime_s / solo.runtime_s
        assert shared_slowdown > 1.2
        assert biased_slowdown > 1.15  # partitioning barely helps

    def test_partitioning_fixes_capacity_contention(self, machine):
        fg = get_application("471.omnetpp")
        bg = get_application("canneal")
        solo = machine.run_solo(fg, threads=1)
        shared = pair_policy(machine, fg, bg, "shared")
        biased = pair_policy(machine, fg, bg, "biased")
        assert shared.fg_runtime_s / solo.runtime_s > 1.1
        assert biased.fg_runtime_s / solo.runtime_s < 1.05


class TestFreshMachineIndependence:
    def test_machines_do_not_share_state(self):
        a = Machine()
        b = Machine()
        app = get_application("fop")
        ra = a.run_solo(app, threads=4)
        rb = b.run_solo(app, threads=4)
        assert ra.runtime_s == rb.runtime_s
