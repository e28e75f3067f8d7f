"""An ordered, chunked process-pool map with a serial fallback.

The contract is strict determinism: ``parallel_map(fn, items)`` returns
``[fn(item) for item in items]`` — same values, same order — no matter
how many workers run or how the pool schedules chunks. Workers receive
work through pickling, so ``fn`` must be a module-level function and the
items picklable; anything else falls back to the serial path rather than
failing the experiment.
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


def persisted_pack_paths(packs):
    """On-disk directories of the already-persisted packs.

    Memory-only packs (``pack.path is None``) are skipped — a worker
    that needs one recompiles it locally, which keeps the fan-out
    correct at the cost of that one pack's compile time. The result
    feeds ``parallel_map(..., pack_paths=...)`` so N-domain sweeps ship
    paths to workers, never arrays.
    """
    return tuple(p.path for p in packs if getattr(p, "path", None))


def pack_initializer(pack_paths, initializer=None, initargs=()):
    """Compose a worker initializer that pre-opens compiled trace packs.

    ``pack_paths`` are on-disk pack directories (strings — cheap to
    pickle); each worker memmaps them into its process-local pack memo
    on startup, so tasks that replay the same traces share the cached
    files zero-copy instead of shipping or regenerating arrays. Any
    wrapped ``initializer`` runs after the preload. Returns
    ``(initializer, initargs)`` ready for :func:`parallel_map`.
    """
    paths = tuple(str(p) for p in pack_paths)
    return _preload_then_init, (paths, initializer, initargs)


def _preload_then_init(paths, initializer, initargs):
    from repro.workloads.tracepack import preload_packs

    preload_packs(paths)
    if initializer is not None:
        initializer(*initargs)


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
    pack_paths=None,
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
    if pack_paths:
        initializer, initargs = pack_initializer(
            pack_paths, initializer, initargs
        )
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
