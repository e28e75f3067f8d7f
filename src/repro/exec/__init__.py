"""Deterministic parallel execution of independent experiment tasks.

Experiments like the Fig. 8 pairwise matrix are embarrassingly parallel:
every cell is an independent simulation of a deterministic engine, so
running cells on a process pool must (and does) return results that are
bitwise identical to the serial loop — the only thing parallelism may
change is wall-clock time. :func:`parallel_map` provides the ordered,
chunked, fallback-to-serial primitive; :func:`run_tasks` binds it to a
:class:`~repro.sim.engine.Machine` rebuilt once per worker process.
"""

from repro.exec.pool import (
    parallel_map,
    resolve_workers,
    usable_cpus,
)
from repro.exec.workers import (
    MachineSpec,
    build_machine,
    machine_spec,
    run_tasks,
    worker_machine,
)

__all__ = [
    "MachineSpec",
    "build_machine",
    "machine_spec",
    "parallel_map",
    "resolve_workers",
    "run_tasks",
    "usable_cpus",
    "worker_machine",
]
