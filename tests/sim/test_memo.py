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
