"""The interval-solution memo: hits, invalidation, the off switch."""

import pytest

from repro.perf.engine_counters import (
    MEMO_HITS,
    MEMO_MISSES,
    engine_counters,
)
from repro.sim import Machine
from repro.sim.memo import IntervalMemo, app_fingerprint
from repro.workloads import get_application


class TestFingerprint:
    def test_distinguishes_apps(self):
        a = app_fingerprint(get_application("429.mcf"))
        b = app_fingerprint(get_application("x264"))
        assert a != b

    def test_stable_for_one_app(self):
        app = get_application("429.mcf")
        assert app_fingerprint(app) == app_fingerprint(app)

    def test_aliased_clone_differs_by_name(self):
        """Self-pair clones (name#2) must not share the original's key."""
        import copy

        app = get_application("h2")
        clone = copy.copy(app)
        clone.name = f"{app.name}#2"
        assert app_fingerprint(clone) != app_fingerprint(app)


class TestMemoBehaviour:
    def test_solo_rerun_is_all_hits(self):
        machine = Machine()
        app = get_application("batik")
        machine.run_solo(app, threads=4)
        misses_after_first = machine.memo.misses
        machine.run_solo(app, threads=4)
        assert machine.memo.misses == misses_after_first
        assert machine.memo.hits > 0

    def test_off_switch(self):
        machine = Machine(memoize=False)
        app = get_application("batik")
        machine.run_solo(app, threads=4)
        machine.run_solo(app, threads=4)
        assert not machine.memo.enabled
        assert machine.memo.entries == 0
        assert machine.memo.hits == 0

    def test_allocation_change_misses(self):
        machine = Machine()
        app = get_application("471.omnetpp")
        machine.run_solo(app, threads=1, ways=12)
        misses = machine.memo.misses
        machine.run_solo(app, threads=1, ways=6)
        assert machine.memo.misses > misses

    def test_clear_forgets(self):
        machine = Machine()
        machine.run_solo(get_application("batik"), threads=4)
        assert machine.memo.entries > 0
        machine.memo.clear()
        assert machine.memo.entries == 0
        assert machine.memo.hits == 0 and machine.memo.misses == 0

    def test_qos_contract_changes_key(self):
        """apply_qos swaps the DRAM domain; memo entries must not cross."""
        from repro.core.bandwidth_qos import QosContract, apply_qos
        from repro.runtime.harness import paper_pair_allocations

        machine = Machine()
        victim = get_application("462.libquantum")
        hog = get_application("stream_uncached")
        fg_alloc, bg_alloc = paper_pair_allocations(victim, hog, 6, 6)
        plain = machine.run_pair(victim, hog, fg_alloc, bg_alloc)
        restore = apply_qos(
            machine, [QosContract(victim.name, 0.35, latency_priority=True)]
        )
        try:
            protected = machine.run_pair(victim, hog, fg_alloc, bg_alloc)
        finally:
            restore()
        again = machine.run_pair(victim, hog, fg_alloc, bg_alloc)
        assert protected.fg.runtime_s != plain.fg.runtime_s
        assert again.fg.runtime_s == plain.fg.runtime_s

    def test_eviction_bounds_entries(self):
        memo = IntervalMemo(max_entries=2)
        memo.put(("a",), 1)
        memo.put(("b",), 2)
        memo.put(("c",), 3)
        assert memo.entries == 2
        assert memo.get(("a",)) is None  # FIFO: oldest evicted
        assert memo.get(("c",)) == 3

    def test_stats_shape(self):
        memo = IntervalMemo()
        memo.put(("k",), 42)
        memo.get(("k",))
        memo.get(("missing",))
        stats = memo.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["enabled"] is True


class TestPerfCounters:
    def test_engine_counters_observe_memo_traffic(self):
        before = engine_counters().snapshot()
        machine = Machine()
        app = get_application("batik")
        machine.run_solo(app, threads=4)
        machine.run_solo(app, threads=4)
        delta = engine_counters().delta(before)
        assert delta[MEMO_MISSES] > 0
        assert delta[MEMO_HITS] > 0


def _dynamic_x264_mcf(machine):
    from repro.core.dynamic import DynamicPartitionController
    from repro.runtime.harness import paper_pair_allocations

    fg, bg = get_application("x264"), get_application("429.mcf")
    controller = DynamicPartitionController(fg.name, bg.name)
    masks = controller.masks()
    fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
    machine.run_pair(
        fg, bg,
        fg_alloc.with_mask(masks[fg.name]),
        bg_alloc.with_mask(masks[bg.name]),
        controller=controller,
    )
    return machine.memo.hits, machine.memo.misses


class TestKeyCost:
    def test_each_app_object_is_fingerprinted_once(self, monkeypatch):
        import repro.sim.memo as memo_module

        expected = _dynamic_x264_mcf(Machine())
        calls = {}
        real = memo_module.app_fingerprint

        def counting(app):
            calls[id(app)] = calls.get(id(app), 0) + 1
            return real(app)

        monkeypatch.setattr(memo_module, "app_fingerprint", counting)
        assert _dynamic_x264_mcf(Machine()) == expected
        assert expected[0] > 100  # many ticks, so a per-tick call would show
        assert calls and max(calls.values()) == 1

    def test_every_12_way_mask_round_trips_its_bits(self):
        from repro.cache.llc import WayMask

        for bits in range(1, 0x1000):
            mask = WayMask.from_bits(bits)
            assert mask.bits == bits
            assert mask.count == bin(bits).count("1")


def _counting_solves(monkeypatch):
    """Count ``solve_interval`` calls made by the engine."""
    import repro.sim.engine as engine

    calls = [0]
    real = engine.solve_interval

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_interval", counting)
    return calls


def _counting_ticks(monkeypatch):
    """Count ``DynamicPartitionController.on_tick`` calls."""
    from repro.core.dynamic import DynamicPartitionController

    ticks = [0]
    real = DynamicPartitionController.on_tick

    def counting(self, now_s, dt_s, metrics):
        ticks[0] += 1
        return real(self, now_s, dt_s, metrics)

    monkeypatch.setattr(DynamicPartitionController, "on_tick", counting)
    return ticks


class TestSteppedAccounting:
    """A stepped run holds its solution between key-changing events, and
    every held tick counts as the hit a rebuilt key would have been."""

    def test_hits_and_misses_cover_every_tick(self, monkeypatch):
        # Unmemoized, the controller is called on every tick; memoized,
        # quiet ticks make no call but still count as hits.
        ticks = _counting_ticks(monkeypatch)
        _dynamic_x264_mcf(Machine(memoize=False))
        every_tick = ticks[0]
        before = engine_counters().snapshot()
        hits, misses = _dynamic_x264_mcf(Machine())
        delta = engine_counters().delta(before)
        assert hits + misses == every_tick
        assert delta[MEMO_HITS] == hits
        assert delta[MEMO_MISSES] == misses

    def test_solves_only_on_misses(self, monkeypatch):
        ticks = _counting_ticks(monkeypatch)
        solves = _counting_solves(monkeypatch)
        hits, misses = _dynamic_x264_mcf(Machine())
        assert solves[0] == misses
        assert hits > 10 * misses  # the held solution answers most ticks

    def test_unmemoized_solves_every_tick(self, monkeypatch):
        ticks = _counting_ticks(monkeypatch)
        solves = _counting_solves(monkeypatch)
        machine = Machine(memoize=False)
        assert _dynamic_x264_mcf(machine) == (0, 0)
        assert ticks[0] > 100
        assert solves[0] == ticks[0]


class _Ticker:
    """A controller double that counts ticks and writes no mask."""

    def __init__(self):
        self.ticks = 0

    def on_tick(self, now_s, dt_s, metrics):
        self.ticks += 1
        return self.act(metrics)

    def act(self, metrics):
        return None


class _QosSwitch(_Ticker):
    """Installs a QoS contract at one tick and restores the original
    DRAM domain at a later one, through ``apply_qos``."""

    def __init__(self, machine, victim, start, stop):
        super().__init__()
        self.machine, self.victim = machine, victim
        self.start, self.stop = start, stop
        self.restore = None

    def act(self, metrics):
        from repro.core.bandwidth_qos import QosContract, apply_qos

        if self.ticks == self.start:
            self.restore = apply_qos(
                self.machine, [QosContract(self.victim, 0.35, latency_priority=True)]
            )
        elif self.ticks == self.stop:
            self.restore()


class _ResendMasks(_Ticker):
    """Returns the masks already in place on every tick; moves the split
    to ``splits[tick]`` foreground ways at the ticks it names."""

    def __init__(self, fg, bg, fg_ways, splits):
        super().__init__()
        self.fg, self.bg, self.fg_ways, self.splits = fg, bg, fg_ways, splits

    def act(self, metrics):
        from repro.cache.llc import WayMask

        self.fg_ways = self.splits.get(self.ticks, self.fg_ways)
        return {
            self.fg: WayMask.contiguous(self.fg_ways, 0, 12),
            self.bg: WayMask.contiguous(12 - self.fg_ways, self.fg_ways, 12),
        }


def _held_equals_fresh(run, **machine_kwargs):
    """``run(machine)`` with the memo on and off must return equal
    results; returns the memoized machine's ``(memo, result)``."""
    on = Machine(**machine_kwargs)
    held = run(on)
    fresh = run(Machine(memoize=False, **machine_kwargs))
    assert held == fresh
    return on.memo, held


class TestHeldSolutionInvalidation:
    """Each key-changing event re-solves: results equal the unmemoized
    engine's bit for bit, and ``solve_interval`` runs once per miss."""

    def _pair(self, machine, fg, bg, controller, **kwargs):
        """A 6/6-way pair stepped by ``controller``; app names or models."""
        from repro.runtime.harness import paper_pair_allocations

        if isinstance(fg, str):
            fg = get_application(fg)
        if isinstance(bg, str):
            bg = get_application(bg)
        fg_alloc, bg_alloc = paper_pair_allocations(fg, bg, 6, 6)
        return machine.run_pair(
            fg, bg, fg_alloc, bg_alloc, controller=controller, timeline=True,
            **kwargs,
        )

    def test_qos_swap_and_restore_mid_run(self, monkeypatch):
        solves = _counting_solves(monkeypatch)
        controllers = []

        def run(machine):
            controllers.append(_QosSwitch(machine, "462.libquantum", 20, 60))
            return self._pair(
                machine, "462.libquantum", "stream_uncached", controllers[-1]
            )

        memo, result = _held_equals_fresh(run)
        ticks = controllers[0].ticks
        assert ticks > 60
        assert memo.hits + memo.misses == ticks
        assert solves[0] - ticks == memo.misses  # the fresh run solves every tick
        # The contract moved the foreground's rate while it was installed.
        rates = [p.per_app["462.libquantum"]["rate_ips"] for p in result.timeline]
        assert rates[18] != rates[30] and rates[18] == rates[70]

    def test_controller_resending_masks_in_place(self, monkeypatch):
        solves = _counting_solves(monkeypatch)
        controllers = []

        def run(machine):
            controllers.append(_ResendMasks("x264", "429.mcf", 6, {30: 9, 90: 4}))
            return self._pair(machine, "x264", "429.mcf", controllers[-1])

        memo, result = _held_equals_fresh(run)
        ticks = controllers[0].ticks
        assert ticks > 90
        assert memo.hits + memo.misses == ticks
        assert solves[0] - ticks == memo.misses
        ways = [p.per_app["x264"]["ways"] for p in result.timeline]
        assert ways[29] == 6 and ways[30] == 9 and ways[-1] == 4

    def test_noisy_mpki_moves_the_mask(self):
        from repro.core.dynamic import DynamicPartitionController
        from repro.runtime.harness import paper_pair_allocations

        actions = {}

        def run(machine):
            fg, bg = get_application("x264"), get_application("429.mcf")
            controller = DynamicPartitionController(fg.name, bg.name)
            masks = controller.masks()
            fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
            result = machine.run_pair(
                fg, bg,
                fg_alloc.with_mask(masks[fg.name]),
                bg_alloc.with_mask(masks[bg.name]),
                controller=controller, timeline=True,
            )
            actions[machine.mpki_noise_std, machine.memo.enabled] = [
                a.time_s for a in controller.actions
            ]
            return result

        _held_equals_fresh(run)
        memo, _ = _held_equals_fresh(run, mpki_noise_std=0.2, noise_seed=5)
        assert memo.hits > 0
        # The noise moves the mask at ticks the noiseless controller does not.
        assert actions[0.2, True] != actions[0.0, True]

    def test_phased_background_wraps_to_phase_zero(self, monkeypatch):
        import dataclasses

        solves = _counting_solves(monkeypatch)
        mcf = get_application("429.mcf")
        short = dataclasses.replace(mcf, instructions=mcf.instructions / 40)
        controllers = []

        def run(machine):
            controllers.append(_Ticker())
            return self._pair(machine, "x264", short, controllers[-1])

        memo, result = _held_equals_fresh(run)
        assert result.bg.instructions > 3 * short.instructions  # wrapped
        ticks = controllers[0].ticks
        assert memo.hits + memo.misses == ticks
        assert solves[0] - ticks == memo.misses

    def test_finished_background_leaves_the_solution(self, monkeypatch):
        import dataclasses

        solves = _counting_solves(monkeypatch)
        batik = get_application("batik")
        short = dataclasses.replace(batik, instructions=batik.instructions / 8)
        controllers = []

        def run(machine):
            controllers.append(_Ticker())
            return self._pair(
                machine, "x264", short, controllers[-1], bg_continuous=False
            )

        memo, result = _held_equals_fresh(run)
        assert result.bg.runtime_s < result.fg.runtime_s / 2
        ticks = controllers[0].ticks
        assert memo.hits + memo.misses == ticks
        assert solves[0] - ticks == memo.misses
