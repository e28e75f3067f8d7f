"""The parallel_map execution primitive."""

import functools
import os

import pytest

from repro.exec import parallel_map, resolve_workers
from repro.sim import Machine
from repro.util.errors import ValidationError
from repro.workloads import get_application


def _square(x):
    return x * x


def _pool_trace():
    from repro.workloads.trace import ZipfTrace

    return ZipfTrace(500, 1 << 20, alpha=0.9, seed=2)


def _pool_pack(_):
    """The key of ``_pool_trace``'s pack and the pid that resolved it."""
    from repro.workloads.tracepack import get_pack

    return get_pack(_pool_trace()).key, os.getpid()


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def _count_profiler_pass(x):
    from repro.perf import engine_counters as ec

    ec.add(ec.PROFILER_PASSES)
    return x + 1


def _count_then_fail_in_worker(args):
    """Count, then fail item 3 only inside a pool worker, so the map's
    serial rerun succeeds."""
    parent_pid, x = args
    _count_profiler_pass(x)
    if x == 3 and os.getpid() != parent_pid:
        raise RuntimeError("worker failure")
    return x


def _solo_runtime(machine, name):
    return machine.run_solo(get_application(name), threads=4).runtime_s


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValidationError):
            resolve_workers(None)
        with pytest.raises(ValidationError):
            resolve_workers(0)

    def test_whitespace_env_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "   ")
        assert resolve_workers(None) == 1

    def test_env_zero_and_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValidationError):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValidationError):
            resolve_workers(None)

    def test_parse_error_suppresses_the_value_error_chain(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4.5")
        with pytest.raises(ValidationError) as excinfo:
            resolve_workers(None)
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__


class TestResolveNativeThreads:
    """REPRO_NATIVE_THREADS is validated exactly like REPRO_WORKERS."""

    def test_default_caps_at_allocations(self, monkeypatch):
        from repro.cache import native
        from repro.exec import usable_cpus

        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        assert native.resolve_native_threads(1) == 1
        assert native.resolve_native_threads(64) == min(usable_cpus(), 64)

    def test_default_for_empty_roster_is_one(self, monkeypatch):
        from repro.cache import native

        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        assert native.resolve_native_threads(0) == 1

    def test_env_opt_in(self, monkeypatch):
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert native.resolve_native_threads(12) == 3

    def test_explicit_beats_env(self, monkeypatch):
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert native.resolve_native_threads(12, threads=2) == 2

    def test_rejects_garbage(self, monkeypatch):
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "many")
        with pytest.raises(ValidationError):
            native.resolve_native_threads(12)
        with pytest.raises(ValidationError):
            native.resolve_native_threads(12, threads=0)

    def test_whitespace_env_means_default(self, monkeypatch):
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "   ")
        assert native.resolve_native_threads(1) == 1

    def test_env_zero_and_negative_rejected(self, monkeypatch):
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "0")
        with pytest.raises(ValidationError):
            native.resolve_native_threads(12)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "-2")
        with pytest.raises(ValidationError):
            native.resolve_native_threads(12)

    def test_parse_error_suppresses_the_value_error_chain(self, monkeypatch):
        from repro.cache import native

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4.5")
        with pytest.raises(ValidationError) as excinfo:
            native.resolve_native_threads(12)
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__
        assert "REPRO_NATIVE_THREADS" in str(excinfo.value)
        assert "'4.5'" in str(excinfo.value)


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]

    def test_parallel_matches_serial_and_order(self, force_pool):
        items = list(range(37))  # not a multiple of any chunk size
        serial = parallel_map(_square, items, workers=1)
        parallel = parallel_map(_square, items, workers=4)
        assert parallel == serial

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [7], workers=8) == [49]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_unpicklable_falls_back_to_serial(self, force_pool):
        """A result the pool cannot pickle back sends the whole map to
        the serial path, which returns it unpickled."""
        items = list(range(6))
        result = parallel_map(
            lambda x: (os.getpid(), lambda y: x + y), items, workers=2
        )
        assert {pid for pid, _ in result} == {os.getpid()}
        assert [add(1) for _, add in result] == [x + 1 for x in items]

    def test_closures_run_in_workers(self, force_pool):
        """The task is inherited by fork, not pickled: a closure over
        local state runs in worker processes."""
        offset = 10
        result = parallel_map(
            lambda x: (x + offset, os.getpid()), range(8), workers=2
        )
        assert [value for value, _ in result] == [x + 10 for x in range(8)]
        assert os.getpid() not in {pid for _, pid in result}

    def test_serial_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            parallel_map(_fail_on_three, [1, 2, 3], workers=1)


class TestWorkerCounters:
    """Engine counters deposited in pool workers reach the parent."""

    @pytest.fixture(autouse=True)
    def fresh_counters(self, monkeypatch):
        from repro.perf import engine_counters as ec
        from repro.perf.events import CounterSet

        monkeypatch.setattr(ec, "_counters", CounterSet(ec.ENGINE_EVENTS))
        return ec

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_counts_like_serial(self, fresh_counters, force_pool, workers):
        ec = fresh_counters
        result = parallel_map(_count_profiler_pass, range(6), workers=workers)
        assert result == [x + 1 for x in range(6)]
        assert ec.engine_counters().read(ec.PROFILER_PASSES) == 6

    def test_failed_pool_counts_only_the_serial_rerun(
        self, fresh_counters, force_pool
    ):
        ec = fresh_counters
        items = [(os.getpid(), x) for x in range(6)]
        result = parallel_map(_count_then_fail_in_worker, items, workers=2)
        assert result == list(range(6))
        assert ec.engine_counters().read(ec.PROFILER_PASSES) == 6


class TestPackSharing:
    @pytest.mark.parametrize("cache", ["stored", "in-memory"])
    def test_workers_inherit_the_parents_packs(
        self, monkeypatch, force_pool, tmp_path, cache
    ):
        """Fork workers find every pack the parent opened already open:
        each task's ``get_pack`` is a hit, and none compiles or is
        shipped anything, for a memmapped pack and for the in-memory
        pack an unwritable cache falls back to."""
        from repro.perf import engine_counters as ec
        from repro.perf.events import CounterSet
        from repro.workloads import tracepack

        root = tmp_path / "traces"
        if cache == "in-memory":
            root.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(root))
        monkeypatch.setattr(tracepack, "_OPEN_PACKS", {})
        parent = tracepack.get_pack(_pool_trace())
        assert (parent.path is None) == (cache == "in-memory")
        monkeypatch.setattr(ec, "_counters", CounterSet(ec.ENGINE_EVENTS))

        items = list(range(4))
        result = parallel_map(_pool_pack, items, workers=2)
        assert {key for key, _ in result} == {parent.key}
        assert any(pid != os.getpid() for _, pid in result)
        counters = ec.engine_counters()
        assert counters.read(ec.PACK_HITS) == len(items)
        assert counters.read(ec.PACK_MISSES) == 0


class TestRunTasks:
    """Tasks over a Machine: ``parallel_map`` over
    ``functools.partial(fn, machine)`` runs on the caller's machine,
    serially in-process or as each worker inherited it."""

    def test_serial_uses_callers_machine(self):
        machine = Machine()
        results = parallel_map(
            functools.partial(_solo_runtime, machine), ["batik", "batik"],
            workers=1,
        )
        assert results[0] == results[1]
        assert machine.memo.entries > 0  # ran in-process on this machine

    def test_workers_match_serial_exactly(self, force_pool):
        names = ["batik", "x264", "ferret", "429.mcf"]
        serial = parallel_map(
            functools.partial(_solo_runtime, Machine()), names, workers=1
        )
        parallel = parallel_map(
            functools.partial(_solo_runtime, Machine()), names, workers=4
        )
        assert serial == parallel

    def test_noise_seed_stable_across_workers(self, force_pool):
        """Seeded noise must give the same answers serial and parallel."""
        names = ["batik", "x264", "batik", "x264"]
        serial = parallel_map(
            functools.partial(
                _solo_runtime, Machine(mpki_noise_std=0.05, noise_seed=11)
            ),
            names,
            workers=1,
        )
        parallel = parallel_map(
            functools.partial(
                _solo_runtime, Machine(mpki_noise_std=0.05, noise_seed=11)
            ),
            names,
            workers=2,
        )
        assert serial == parallel
