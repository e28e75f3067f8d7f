"""Bitwise-equivalence regressions for the execution/caching layer.

The whole point of the memo, the solver fast paths, and the process pool
is that they change wall-clock time and nothing else. These tests pin
that down with exact float equality — no approx anywhere.
"""

from repro.analysis.experiments import fig08_pairwise_slowdowns
from repro.core.bandwidth_qos import QosContract, apply_qos
from repro.runtime.harness import paper_pair_allocations
from repro.sim import Machine
from repro.sim.tuning import EngineTuning
from repro.workloads import get_application
from .._pairs import dynamic_pair, run_bits

APPS = ("429.mcf", "x264", "ferret", "streamcluster")
# Dynamic pairs over the representatives (C1-C6): phased and flat
# foregrounds, streaming and cache-hungry backgrounds, and a self-pair.
DYNAMIC_PAIRS = (
    ("429.mcf", "streamcluster"),
    ("459.GemsFDTD", "ferret"),
    ("ferret", "fop"),
    ("fop", "dedup"),
    ("dedup", "dedup"),
    ("batik", "429.mcf"),
)


def _run_solo(machine, name):
    app = get_application(name)
    threads = 1 if app.scalability.single_threaded else 4
    return machine.run_solo(app, threads=threads, ways=12)


def _run_pair(machine, fg_name, bg_name):
    fg, bg = get_application(fg_name), get_application(bg_name)
    fg_alloc, bg_alloc = paper_pair_allocations(
        fg, bg, llc_ways=machine.config.llc_ways
    )
    return machine.run_pair(fg, bg, fg_alloc, bg_alloc, bg_continuous=True)


def _assert_identical_runs(a, b):
    assert a.runtime_s == b.runtime_s
    assert a.instructions == b.instructions
    assert a.llc_misses == b.llc_misses
    assert a.mpki == b.mpki
    assert a.socket_energy_j == b.socket_energy_j
    assert a.wall_energy_j == b.wall_energy_j


class TestMemoEquivalence:
    def test_solo_runs_identical(self):
        on, off = Machine(memoize=True), Machine(memoize=False)
        for name in APPS:
            _assert_identical_runs(_run_solo(on, name), _run_solo(off, name))
        assert on.memo.misses > 0  # the memo actually engaged

    def test_pair_runs_identical(self):
        on, off = Machine(memoize=True), Machine(memoize=False)
        for fg, bg in (("429.mcf", "x264"), ("ferret", "ferret")):
            a, b = _run_pair(on, fg, bg), _run_pair(off, fg, bg)
            _assert_identical_runs(a.fg, b.fg)
            assert a.bg_rate_ips == b.bg_rate_ips
            assert a.wall_energy_j == b.wall_energy_j
        assert on.memo.hits > 0

    def test_dynamic_runs_identical(self):
        """Held and quiet-stretch ticks measure, and decide, bit for bit
        what ``memoize=False`` does: it solves and calls the controller
        on every tick."""
        on, off = Machine(memoize=True), Machine(memoize=False)
        for fg, bg in DYNAMIC_PAIRS:
            a = dynamic_pair(on, fg, bg)
            b = dynamic_pair(off, fg, bg)
            assert run_bits(*a[:2]) == run_bits(*b[:2]), (fg, bg)
            assert a[1].actions  # the controller acted
        assert on.memo.hits > 0

    def test_fig08_sweep_identical(self):
        on = fig08_pairwise_slowdowns(Machine(memoize=True), apps=APPS)
        off = fig08_pairwise_slowdowns(Machine(memoize=False), apps=APPS)
        assert on == off  # exact float equality, every cell

    def test_repeat_on_one_machine_identical(self):
        """Warm-cache reruns must equal the cold first run exactly."""
        machine = Machine()
        first = _run_pair(machine, "h2", "462.libquantum")
        second = _run_pair(machine, "h2", "462.libquantum")
        _assert_identical_runs(first.fg, second.fg)
        assert first.bg_rate_ips == second.bg_rate_ips


class TestParallelEquivalence:
    def test_fig08_workers_identical(self, force_pool):
        serial = fig08_pairwise_slowdowns(Machine(), apps=APPS, workers=1)
        parallel = fig08_pairwise_slowdowns(Machine(), apps=APPS, workers=4)
        assert serial == parallel  # exact float equality, every cell

    def test_fig08_workers_keep_the_machines_qos(self, force_pool):
        """Workers compute on the caller's machine as they inherited
        it, so a bandwidth-QoS domain installed on it reaches every
        pooled cell."""
        apps = ("471.omnetpp", "canneal", "streamcluster")

        def slowdowns(workers):
            machine = Machine()
            apply_qos(machine, [QosContract("471.omnetpp", 0.3, True)])
            return fig08_pairwise_slowdowns(machine, apps=apps, workers=workers)

        serial = slowdowns(1)
        assert slowdowns(2) == serial
        assert serial != fig08_pairwise_slowdowns(Machine(), apps=apps)


class TestFastPathDrift:
    def test_fig08_default_tuning_tracks_the_tol0_schedule(self):
        """The solver fast paths (early exit, closed forms) stay within
        1e-5 relative of ``occupancy_tol=0``, which replays the fixed
        40-iteration schedule, on every Fig. 8 cell."""
        exact = fig08_pairwise_slowdowns(
            Machine(tuning=EngineTuning(occupancy_tol=0.0), memoize=False),
            apps=APPS,
        )
        fast = fig08_pairwise_slowdowns(Machine(memoize=False), apps=APPS)
        assert fast.keys() == exact.keys()
        drift = max(
            abs(fast[k] - exact[k]) / abs(exact[k]) for k in exact
        )
        assert drift <= 1e-5
