"""An ordered, chunked process-pool map with a serial fallback.

The contract is strict determinism: ``parallel_map(fn, items)`` returns
``[fn(item) for item in items]`` — same values, same order — no matter
how many workers run or how the pool schedules chunks. Workers receive
work through pickling, so ``fn`` must be a module-level function and the
items picklable; anything else falls back to the serial path rather than
failing the experiment.

The pool is fork-only, so workers inherit the parent's process state:
every trace pack the parent opened (the registry behind
:func:`repro.workloads.tracepack.get_pack`) is already open in each
worker, its memmapped pages shared by the OS. Callers open packs before
mapping; nothing pack-related is shipped.
"""

import os

from repro.util.errors import ValidationError

_ENV_WORKERS = "REPRO_WORKERS"


def resolve_workers(workers=None):
    """Turn a worker request into a concrete positive count.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable and
    finally to 1 (serial) — experiments stay serial unless a caller or
    the environment opts in.
    """
    if workers is None:
        env = os.environ.get(_ENV_WORKERS, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                # The ValueError's traceback adds nothing the message
                # doesn't already say; keep the validation error clean.
                raise ValidationError(
                    f"{_ENV_WORKERS} must be an integer, got {env!r}"
                ) from None
        else:
            workers = 1
    workers = int(workers)
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    return workers


def _usable_cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def usable_cpus():
    """CPUs this process may actually run on (affinity-aware).

    The default sizing input for both process pools and the native batch
    kernel's in-C thread count (``repro.cache.native``).
    """
    return _usable_cpus()


def _serial_map(fn, items, initializer, initargs):
    if initializer is not None:
        initializer(*initargs)
    return [fn(item) for item in items]


def _counted_call(fn, item):
    """Run one pool task; return its result and the engine-counter
    delta it left in this worker process, so the parent can merge the
    counts a worker would otherwise keep to itself."""
    from repro.perf import engine_counters as ec

    counters = ec.engine_counters()
    before = counters.snapshot()
    result = fn(item)
    return result, counters.delta(before)


def parallel_map(
    fn,
    items,
    workers=None,
    initializer=None,
    initargs=(),
    cap_to_cpus=True,
):
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results come back in input order. ``workers=1`` (the default) runs
    serially in-process — including the initializer, so the two paths
    exercise identical code. Simulation work is CPU-bound, so the pool
    never oversubscribes: requested workers are capped at the cores the
    process may actually use (``cap_to_cpus=False`` disables this, for
    tests that must exercise the pool machinery regardless of host).
    If the pool cannot be created or fails mid-flight (sandboxes without
    fork, unpicklable work), the whole map silently re-runs serially:
    parallelism is a wall-clock optimization, never a correctness
    dependency.

    Engine counters (:mod:`repro.perf.engine_counters`) that pool tasks
    deposit come back with their results and are added to this
    process's counters in input order once the whole map has succeeded,
    so a pool run counts what the serial run counts. A pool that fails
    contributes nothing: its partial counts are dropped before the
    serial rerun counts everything once.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if cap_to_cpus:
        workers = min(workers, _usable_cpus())
    if workers == 1 or len(items) <= 1:
        return _serial_map(fn, items, initializer, initargs)

    workers = min(workers, len(items))
    chunksize = max(1, len(items) // (workers * 4))
    try:
        import concurrent.futures
        import functools
        import multiprocessing

        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as executor:
            outcomes = list(executor.map(
                functools.partial(_counted_call, fn), items,
                chunksize=chunksize,
            ))
    except (ValidationError, KeyboardInterrupt):
        raise
    except Exception:
        return _serial_map(fn, items, initializer, initargs)
    from repro.perf import engine_counters as ec

    for _, delta in outcomes:
        for event, amount in delta.items():
            if amount:
                ec.add(event, amount)
    return [result for result, _ in outcomes]
