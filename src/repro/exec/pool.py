"""An ordered, chunked process-pool map with a serial fallback.

The contract is strict determinism: ``parallel_map(fn, items)`` returns
``[fn(item) for item in items]`` — same values, same order — no matter
how many workers run or how the pool schedules chunks.

The pool is fork-only, and workers compute on the caller's own state:
they inherit ``fn`` and everything it closes over (a closure, a bound
method, a ``functools.partial`` over a ``Machine``, with whatever that
machine carries), and every trace pack the parent opened (the registry
behind :func:`repro.workloads.tracepack.get_pack`), its memmapped pages
shared by the OS. Only items and results are pickled; work that cannot
be falls back to the serial path rather than failing the experiment.
"""

import os

from repro.util.errors import ValidationError

_ENV_WORKERS = "REPRO_WORKERS"

# The task of the map in flight. Set before the pool forks its workers,
# so each worker inherits it instead of unpickling it.
_TASK = None


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


def usable_cpus():
    """CPUs this process may actually run on (affinity-aware).

    The default sizing input for both process pools and the native batch
    kernel's in-C thread count (``repro.cache.native``).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def _counted_call(item):
    """Run one pool task; return its result and the engine-counter
    delta it left in this worker process, so the parent can merge the
    counts a worker would otherwise keep to itself."""
    from repro.perf import engine_counters as ec

    counters = ec.engine_counters()
    before = counters.snapshot()
    result = _TASK(item)
    return result, counters.delta(before)


def parallel_map(fn, items, workers=None):
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results come back in input order. ``workers=1`` (the default) runs
    ``fn`` serially in-process on the same state the workers would
    inherit. Simulation work is CPU-bound, so the pool never
    oversubscribes: requested workers are capped at the cores the
    process may actually use. If the pool cannot be created or fails
    mid-flight (sandboxes without fork, unpicklable items or results),
    the whole map silently re-runs serially: parallelism is a
    wall-clock optimization, never a correctness dependency.

    Engine counters (:mod:`repro.perf.engine_counters`) that pool tasks
    deposit come back with their results and are added to this
    process's counters in input order once the whole map has succeeded,
    so a pool run counts what the serial run counts. A pool that fails
    contributes nothing: its partial counts are dropped before the
    serial rerun counts everything once.
    """
    global _TASK
    items = list(items)
    workers = min(resolve_workers(workers), usable_cpus(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]

    chunksize = max(1, len(items) // (workers * 4))
    outer, _TASK = _TASK, fn
    try:
        import concurrent.futures
        import multiprocessing

        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as executor:
            outcomes = list(executor.map(
                _counted_call, items, chunksize=chunksize
            ))
    except (ValidationError, KeyboardInterrupt):
        raise
    except Exception:
        return [fn(item) for item in items]
    finally:
        _TASK = outer
    from repro.perf import engine_counters as ec

    for _, delta in outcomes:
        for event, amount in delta.items():
            if amount:
                ec.add(event, amount)
    return [result for result, _ in outcomes]
