"""Process-wide engine counters (solver and memo instrumentation).

The simulation engine is itself a measured system: the interval memo
hits or misses, the occupancy solver iterates or takes a fast path.
These land in one global :class:`~repro.perf.events.CounterSet` so
``perf/stat.py`` can report them with the same read-delta discipline as
the simulated hardware events. Counters are per-process: pool workers
accumulate their own totals, and :func:`repro.exec.pool.parallel_map`
adds each task's delta back into the parent's counters.
"""

from repro.perf.events import CounterSet

MEMO_HITS = "memo_hits"
MEMO_MISSES = "memo_misses"
OCCUPANCY_SOLVES = "occupancy_solves"
OCCUPANCY_ITERATIONS = "occupancy_iterations"
OCCUPANCY_FAST_PATH = "occupancy_fast_path"
TRACE_ACCESSES = "trace_accesses"
KERNEL_BATCHES = "kernel_batches"
KERNEL_BATCHED_ACCESSES = "kernel_batched_accesses"
PROFILER_PASSES = "profiler_passes"
PACK_HITS = "pack_hits"
PACK_MISSES = "pack_misses"
PACK_COMPILED_ACCESSES = "pack_compiled_accesses"
PACK_REPLAYS = "pack_replays"
BATCH_CALLS = "batch_calls"
BATCH_CELLS = "batch_cells"
DYNBATCH_CALLS = "dynbatch_calls"
DYNBATCH_CELLS = "dynbatch_cells"
GRID_CALLS = "grid_calls"
GRID_CELLS = "grid_cells"
CAMPAIGN_SHARDS = "campaign_shards"
CAMPAIGN_CELLS_RUN = "campaign_cells_run"
CAMPAIGN_CELLS_SKIPPED = "campaign_cells_skipped"
CAMPAIGN_RETRIES = "campaign_retries"

ENGINE_EVENTS = (
    MEMO_HITS,
    MEMO_MISSES,
    OCCUPANCY_SOLVES,
    OCCUPANCY_ITERATIONS,
    OCCUPANCY_FAST_PATH,
    TRACE_ACCESSES,
    KERNEL_BATCHES,
    KERNEL_BATCHED_ACCESSES,
    PROFILER_PASSES,
    PACK_HITS,
    PACK_MISSES,
    PACK_COMPILED_ACCESSES,
    PACK_REPLAYS,
    BATCH_CALLS,
    BATCH_CELLS,
    DYNBATCH_CALLS,
    DYNBATCH_CELLS,
    GRID_CALLS,
    GRID_CELLS,
    CAMPAIGN_SHARDS,
    CAMPAIGN_CELLS_RUN,
    CAMPAIGN_CELLS_SKIPPED,
    CAMPAIGN_RETRIES,
)

_counters = CounterSet(ENGINE_EVENTS)


def engine_counters():
    """The live engine CounterSet (snapshot/delta like any other)."""
    return _counters


def reset_engine_counters():
    """Replace the global counter set; returns the fresh one."""
    global _counters
    _counters = CounterSet(ENGINE_EVENTS)
    return _counters


def add(event, amount=1.0):
    """Deposit into the live counter set (used by the engine hot paths)."""
    _counters.add(event, amount)
