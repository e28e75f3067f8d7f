"""Hand-built batch-kernel tables for the lockstep tests.

The batch builders take a :class:`~repro.cache.kernel.BatchCells`
table. These tests describe cells one at a time, as a list of per-slot
columns, and :func:`batch_cells` lays them out: each slot gets its own
trace column, so a test can shorten or corrupt one slot's columns
without touching another's.
"""

import numpy as np

from repro.cache.kernel import BatchCells


def batch_cells(hierarchy, cells):
    """The :class:`BatchCells` table of ``cells``: dicts with keys
    ``cores``, ``thinks``, ``lines``, ``sets``, ``lengths``,
    ``repeats``, ``stop`` and optionally ``mask_bits`` (one LLC way-mask
    word per slot; ``None`` keeps each core's current mask on
    ``hierarchy``) and ``profile``."""
    n_max = max(len(cell["cores"]) for cell in cells)
    shape = (len(cells), n_max)
    column = np.full(shape, -1, dtype=np.int64)
    cores = np.zeros(shape, dtype=np.int64)
    thinks = np.zeros(shape, dtype=np.int64)
    repeats = np.zeros(shape, dtype=bool)
    masks = np.zeros(shape, dtype=np.int64)
    lines, sets, lengths = [], [], []
    for r, cell in enumerate(cells):
        words = cell.get("mask_bits")
        if words is None:
            # A core the hierarchy lacks gets the full word, so the
            # builder, not this helper, reports the core.
            full = (1 << hierarchy.llc.num_ways) - 1
            words = [
                hierarchy.llc._mask_bits.get(c, full) for c in cell["cores"]
            ]
        for slot, core in enumerate(cell["cores"]):
            column[r, slot] = len(lines)
            lines.append(cell["lines"][slot])
            sets.append(cell["sets"][slot])
            lengths.append(cell["lengths"][slot])
            cores[r, slot] = core
            thinks[r, slot] = cell["thinks"][slot]
            repeats[r, slot] = cell["repeats"][slot]
            masks[r, slot] = words[slot]
    return BatchCells(
        lines=lines,
        sets=sets,
        lengths=lengths,
        column=column,
        cores=cores,
        thinks=thinks,
        repeats=repeats,
        masks=masks,
        stops=np.array([cell["stop"] for cell in cells], dtype=np.int64),
        profile=np.array([bool(cell.get("profile")) for cell in cells]),
    )


def run_cells(batch):
    """Run a one-shot batch; every cell's ``(counts, vtimes)`` tuples."""
    counts, _ = batch.run()
    return [batch.cell_result(r) for r in range(len(counts))]
