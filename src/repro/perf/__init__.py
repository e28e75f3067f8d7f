"""Performance-counter infrastructure (the libpfm/perf_events analogue).

The paper measures performance with libpfm over Linux perf_events
(Section 2.2) and drives its dynamic controller from 100 ms MPKI samples
(Section 6.2). This package provides the same read-delta counter
discipline against the simulated platform.
"""

from repro.perf.events import (
    CYCLES,
    INSTRUCTIONS,
    LLC_ACCESSES,
    LLC_MISSES,
    CounterSet,
    PerfCounter,
)

__all__ = [
    "CYCLES",
    "CounterSet",
    "INSTRUCTIONS",
    "LLC_ACCESSES",
    "LLC_MISSES",
    "PerfCounter",
]
