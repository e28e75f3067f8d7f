"""Machine-bound task execution for experiment fan-out.

A worker process cannot share the driver's :class:`Machine` (its memo and
solo caches are plain dicts), so each worker rebuilds an identical one
from a :class:`MachineSpec` at pool start and keeps it for every task it
runs — the per-worker caches then warm up exactly like the serial path's
single cache does, preserving determinism because cache hits return the
same values a fresh solve would.
"""

from dataclasses import dataclass

from repro.exec.pool import parallel_map, resolve_workers

# The worker's Machine, built once per process by _init_worker.
_WORKER_MACHINE = None


@dataclass(frozen=True)
class MachineSpec:
    """Everything needed to rebuild a Machine in another process."""

    config: object = None
    tuning: object = None
    mpki_noise_std: float = 0.0
    noise_seed: int = 0
    memoize: bool = True


def machine_spec(machine):
    """The spec that rebuilds ``machine`` (caches start empty)."""
    return MachineSpec(
        config=machine.config,
        tuning=machine.tuning,
        mpki_noise_std=machine.mpki_noise_std,
        noise_seed=machine.noise_seed,
        memoize=machine.memo.enabled,
    )


def build_machine(spec):
    from repro.sim.engine import Machine

    return Machine(
        config=spec.config,
        tuning=spec.tuning,
        mpki_noise_std=spec.mpki_noise_std,
        noise_seed=spec.noise_seed,
        memoize=spec.memoize,
    )


def _init_worker(spec):
    global _WORKER_MACHINE
    _WORKER_MACHINE = build_machine(spec)


def worker_machine():
    """The Machine bound to this worker process (serial: the caller's)."""
    if _WORKER_MACHINE is None:
        raise RuntimeError("worker_machine() outside an initialized worker")
    return _WORKER_MACHINE


def _bound_task(payload):
    fn, item = payload
    return fn(_WORKER_MACHINE, item)


def run_tasks(machine, fn, items, workers=None, cap_to_cpus=True):
    """Run ``fn(machine, item)`` for every item, serially or on a pool.

    ``fn`` must be a module-level function of ``(machine, item)``; with
    ``workers > 1`` it receives the worker's rebuilt Machine instead of
    the caller's. Results return in input order either way.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if cap_to_cpus:
        from repro.exec.pool import _usable_cpus

        workers = min(workers, _usable_cpus())
    if workers == 1 or len(items) <= 1:
        return [fn(machine, item) for item in items]
    return parallel_map(
        _bound_task,
        [(fn, item) for item in items],
        workers=workers,
        initializer=_init_worker,
        initargs=(machine_spec(machine),),
        cap_to_cpus=False,
    )
