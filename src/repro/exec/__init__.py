"""Deterministic parallel execution of independent experiment tasks.

Experiments like the Fig. 8 pairwise matrix are embarrassingly parallel:
every cell is an independent simulation of a deterministic engine, so
running cells on a process pool must (and does) return results that are
bitwise identical to the serial loop — the only thing parallelism may
change is wall-clock time. :func:`parallel_map` provides the ordered,
chunked, fallback-to-serial primitive. Its fork workers compute on the
caller's own state (a task over a :class:`~repro.sim.engine.Machine`
runs on that machine, as inherited at the fork); only items and results
are pickled.
"""

from repro.exec.pool import (
    parallel_map,
    resolve_workers,
    usable_cpus,
)

__all__ = [
    "parallel_map",
    "resolve_workers",
    "usable_cpus",
]
