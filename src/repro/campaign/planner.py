"""Shard planning: group a campaign's cells into shards by kind.

The perf contract of a campaign is that its inner loop is C — or, for
the analytical backend, NumPy — not per-cell Python, so cells that share
a control structure execute together. :data:`SHARD_KINDS` names every
shard kind, what it runs, the order kinds run in and how many cells a
shard holds; :func:`shard_kind_for` routes a cell to its kind and
:func:`plan_shards` chunks the cells of each kind.

Shards are also the checkpoint unit: the runner persists one atomic
RunSet shard file per executed shard, so ``--resume`` granularity and
C-call granularity are the same knob (``shard_size``).
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.campaign.manifest import MAX_MANIFEST_TENANTS, static_policy_ways
from repro.util.errors import ValidationError

DEFAULT_SHARD_SIZE = 64


class ShardKind(NamedTuple):
    """One shard kind: a row of :data:`SHARD_KINDS`."""

    name: str
    # Replay cells one member cell adds to the shard's batched call; a
    # shard holds ``shard_size // width`` cells (at least one), so its
    # native call stays near ``shard_size`` replay cells.
    width: int
    # Cells per shard regardless of ``shard_size``, when non-zero.
    fixed: int
    # What ``campaign plan`` prints, filled with ``cells`` and ``shards``.
    line: str

    def cells_per_shard(self, shard_size):
        return self.fixed or max(1, shard_size // self.width)


# Every shard kind, in execution order.
SHARD_KINDS = (
    # Trace shared/fair/static-N pair cells and shared/fair group cells
    # (masks straight from their GroupSplit): one fixed-split co-run
    # each, the whole shard replayed by ONE
    # :func:`repro.sim.trace_engine.run_packed_roster` call.
    ShardKind(
        "roster", 1, 0,
        "batchable: {cells} cells in {shards} roster shards "
        "(one native call each)",
    ),
    # Analytical shared/fair: ONE
    # :meth:`repro.backend.analytical.AnalyticalBackend.co_run_grid`
    # lockstep batch per shard, its rounds solved vectorized.
    ShardKind(
        "grid", 1, 0,
        "grid: {cells} cells in {shards} analytical grid shards "
        "(one vectorized solve each)",
    ),
    # Pair biased (measure every split, then argmax): each cell's
    # 11-allocation sweep joins one batched call (a trace roster, or
    # one analytical ``co_run_grid`` batch), and the winner is chosen
    # from those entries. They are co-run measurements and both
    # backends are deterministic, so nothing re-measures.
    ShardKind(
        "sweep", 11, 0,
        "sweep: {cells} biased cells in {shards} sweep shards "
        "(11 allocations per cell, one batched call each)",
    ),
    # Pair dynamic (the Algorithm 6.2 feedback loop), every cell with
    # its own controller, advanced together: on traces one
    # :func:`repro.sim.trace_engine.run_dynamic_roster`, one threaded
    # epoch-batch C call per control period for the whole shard;
    # analytically one lockstep roster whose memo misses are solved
    # together, one vectorized interval solve per round.
    ShardKind(
        "dynamic", 1, 0,
        "dynamic: {cells} cells in {shards} dynamic-roster shards "
        "(one batched controller roster each)",
    ),
    # Group cluster (LFOC-style): each cell profiles its tenants' way
    # utility (one 12-allocation sweep call), then every planned split
    # in the shard replays in ONE batched roster call.
    ShardKind(
        "cluster", 12, 0,
        "cluster: {cells} cells in {shards} profile-then-replay shards "
        "(one batched final replay each)",
    ),
    # The rest, per cell over the exec pool's ``parallel_map``, with a
    # checkpoint every 8 cells: group biased/dynamic (their control
    # loops already run one batched native call per cell).
    ShardKind(
        "fallback", 1, 8,
        "fallback: {cells} cells in {shards} shards (exec-pool per-cell)",
    ),
)


def shard_kind_for(cell):
    """The name of the :data:`SHARD_KINDS` entry executing this cell."""
    if cell.tenants:
        if cell.policy in ("shared", "fair"):
            return "roster"
        if cell.policy == "cluster":
            return "cluster"
        return "fallback"
    if cell.policy == "biased":
        return "sweep"
    if cell.policy == "dynamic":
        return "dynamic"
    if cell.backend == "analytical":
        return "grid" if cell.policy in ("shared", "fair") else "fallback"
    if (
        cell.policy in ("shared", "fair")
        or static_policy_ways(cell.policy) is not None
    ):
        return "roster"
    return "fallback"


def split_for(cell, llc_ways=12):
    """The GroupSplit a fixed-split cell runs under (None otherwise):
    the shared and fair splits of its tenant count, or a static-N pair
    cell's disjoint split."""
    from repro.backend.protocol import GroupSplit

    tenants = len(cell.tenants) or 2
    if cell.policy == "shared":
        return GroupSplit.shared(tenants, llc_ways)
    if cell.policy == "fair":
        return GroupSplit.fair(tenants, llc_ways)
    ways = static_policy_ways(cell.policy)
    if ways is None or cell.tenants:
        return None
    return GroupSplit.disjoint(ways, llc_ways)


def tenants_for(cell):
    """The backend TenantSet of a cell: a trace cell's synthetic trace
    tenants (picklable factories), or an analytical pair's models."""
    if cell.backend != "trace":
        from repro.backend import AnalyticalBackend

        return AnalyticalBackend.group_spec([cell.fg, cell.bg])
    from repro.analysis.experiments import trace_group_spec

    geometry = cell.geometry_dict
    return trace_group_spec(
        cell.tenants or (cell.fg, cell.bg),
        accesses=int(geometry["accesses"]),
        footprint_mb=float(geometry["footprint_mb"]),
        alpha=float(geometry["alpha"]),
        seed=int(geometry["seed"]),
        bg_footprint_mb=float(geometry["bg_footprint_mb"]),
    )


def backend_for(cell, threads=None):
    """A fresh SimBackend configured for the cell."""
    if cell.backend == "trace":
        from repro.backend import TraceBackend

        geometry = cell.geometry_dict
        controller = cell.controller_dict
        return TraceBackend(
            total_accesses=int(geometry["accesses"]),
            epoch_accesses=int(
                controller.get("epoch_accesses") or 4_000
            ),
            dynamic_total_accesses=controller.get("total_accesses"),
            native_threads=threads,
        )
    if cell.backend == "analytical":
        from repro.backend import AnalyticalBackend

        return AnalyticalBackend()
    raise ValidationError(f"unknown cell backend {cell.backend!r}")


class TraceTable:
    """Every distinct trace workload, pack, split and way mask one
    campaign run replays, each resolved once.

    Cells that share a pair (or tenant roster) and a geometry share its
    workloads; workloads whose traces compile to the same pack share
    that pack, since :func:`~repro.workloads.tracepack.get_pack` returns
    one object per pack per process; cells under one policy share its
    split and masks. A fixed-split cell thus reduces to one row of
    workload and mask indices, and a shard of them to one
    :class:`~repro.sim.trace_engine.Roster` over this table
    (:meth:`roster`). Build one per ``run_campaign`` call: it holds no
    state across calls.
    """

    def __init__(self):
        from repro.backend import TraceBackend

        self.backend = TraceBackend()
        self.llc_ways = self.backend.capabilities().llc_ways
        self.workloads = []
        self.packs = []
        self.masks = []
        self._mask_index = {}  # (bits, num_ways) -> index into masks
        self._split_masks = {}  # split -> mask indices, in tenant order
        self._specs = {}  # (tenants, fg, bg, geometry) -> (tenants, members)
        self._splits = {}  # (policy, tenant count) -> split
        # Per row, padded to MAX_MANIFEST_TENANTS slots with -1.
        self._row_members = []
        self._row_masks = []
        self._row_stops = []
        self._row_meta = []  # (tenant set, split) per row
        self._backends = {}  # (geometry, controller, threads) -> backend

    def backend_for(self, cell, threads=None):
        """:func:`backend_for` the cell, one per configuration."""
        key = (cell.geometry, cell.controller, threads)
        backend = self._backends.get(key)
        if backend is None:
            backend = self._backends[key] = backend_for(cell, threads)
        return backend

    def _add_workload(self, workload):
        self.workloads.append(workload)
        self.packs.append(workload.pack())
        return len(self.workloads) - 1

    def spec(self, cell):
        """``(tenants, members)``: the cell's TenantSet and its
        workloads' indices, built on first use."""
        key = (cell.tenants, cell.fg, cell.bg, cell.geometry)
        found = self._specs.get(key)
        if found is None:
            tenants = tenants_for(cell)
            members = tuple(self._add_workload(w) for w in tenants.tenants)
            found = self._specs[key] = (tenants, members)
        return found

    def _mask(self, mask):
        key = (mask.bits, mask.num_ways)
        index = self._mask_index.get(key)
        if index is None:
            index = self._mask_index[key] = len(self.masks)
            self.masks.append(mask)
        return index

    def split(self, cell):
        """The fixed split the cell runs under."""
        key = (cell.policy, len(cell.tenants))
        split = self._splits.get(key)
        if split is None:
            split = split_for(cell, self.llc_ways)
            if split is None:
                raise ValidationError(f"cell {cell.cell_id} is not batchable")
            split = self._splits[key] = split
        return split

    def _add_row(self, tenants, members, split, stop):
        """A roster row: ``members`` under ``split``'s masks."""
        masks = self._split_masks.get(split)
        if masks is None:
            by_core = self.backend.masks(tenants.tenants, split)
            ways = [by_core[w.tid // 2] for w in tenants.tenants]
            masks = self._split_masks[split] = tuple(map(self._mask, ways))
        pad = (-1,) * (MAX_MANIFEST_TENANTS - len(members))
        self._row_members.append(members + pad)
        self._row_masks.append(masks + pad)
        self._row_stops.append(stop)
        self._row_meta.append((tenants, split))
        return len(self._row_members) - 1

    def row(self, cell):
        """A new row for a fixed-split (roster) cell."""
        tenants, members = self.spec(cell)
        return self._add_row(
            tenants, members, self.split(cell),
            int(cell.geometry_dict["accesses"]),
        )

    def sweep_rows(self, cell):
        """``(tenants, splits, rows)`` of a biased cell's measured
        sweep: one row per split of ``TraceBackend.disjoint_splits``."""
        tenants, members = self.spec(cell)
        splits = self.backend.disjoint_splits()
        stop = int(cell.geometry_dict["accesses"])
        rows = [self._add_row(tenants, members, s, stop) for s in splits]
        return tenants, splits, rows

    def group_row(self, cell, split):
        """The row of a cell under a split planned at run time."""
        tenants, members = self.spec(cell)
        return self._add_row(
            tenants, members, split, int(cell.geometry_dict["accesses"])
        )

    def meta(self, row):
        """``(tenants, split)`` of a row."""
        return self._row_meta[row]

    def roster(self, rows):
        """The :class:`~repro.sim.trace_engine.Roster` replaying
        ``rows``, over this table's workloads, packs and masks."""
        import numpy as np

        from repro.sim.trace_engine import Roster

        members = np.array([self._row_members[r] for r in rows])
        width = int((members >= 0).sum(axis=1).max())
        mask_of = np.array([self._row_masks[r] for r in rows])
        return Roster(
            workloads=self.workloads,
            masks=self.masks,
            members=members[:, :width],
            mask_of=mask_of[:, :width],
            stops=np.array(
                [self._row_stops[r] for r in rows], dtype=np.int64
            ),
            packs=self.packs,
        )


@dataclass
class ShardPlan:
    """The execution plan.

    ``shards`` lists ``(kind, cells)`` in execution order: kinds in
    :data:`SHARD_KINDS` order, then backends in order of first
    appearance, cells in cell-list order. ``skipped``
    holds cells the store already held (resume hits).
    """

    shards: list = field(default_factory=list)
    skipped: list = field(default_factory=list)


def plan_shards(cells, done_ids=(), shard_size=DEFAULT_SHARD_SIZE):
    """Split the remaining cells into shards by kind.

    ``done_ids`` holds content addresses already present in the store;
    those cells are skipped without executing anything. The split and
    the shard boundaries are deterministic functions of the cell list,
    so two planners over the same manifest and store agree exactly.
    """
    if shard_size < 1:
        raise ValidationError("shard_size must be >= 1")
    done_ids = set(done_ids)
    plan = ShardPlan()
    # kind -> backend -> cells: a shard never mixes backends.
    by_kind = {kind.name: {} for kind in SHARD_KINDS}
    for cell in cells:
        if cell.cell_id in done_ids:
            plan.skipped.append(cell)
        else:
            kind = by_kind[shard_kind_for(cell)]
            kind.setdefault(cell.backend, []).append(cell)
    for kind in SHARD_KINDS:
        size = kind.cells_per_shard(shard_size)
        for todo in by_kind[kind.name].values():
            plan.shards.extend(
                (kind.name, todo[i:i + size])
                for i in range(0, len(todo), size)
            )
    return plan
