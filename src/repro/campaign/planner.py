"""Shard planning: pack batchable cells into native roster calls.

The perf contract of a campaign is that its inner loop is C — or, for
the analytical backend, NumPy — not per-cell Python. Every trace cell
is batchable, each policy through the shard kind that fits its control
structure:

- ``shared``/``fair``/``static-N`` (one fixed-split co-run known before
  anything executes) group into **roster** shards, each replayed by ONE
  :func:`repro.sim.trace_engine.run_packed_roster` call;
- ``biased`` (measure every split, then argmax) groups into **sweep**
  shards: each cell contributes its 11-allocation measured sweep to one
  batched roster call, and the winner is chosen from the measured
  entries — no separate re-measure co-run is needed, because the
  entries *are* co-run measurements and replay is deterministic;
- ``dynamic`` (epoch feedback loop) groups into **dynamic-roster**
  shards, each driven by :func:`repro.sim.trace_engine.run_dynamic_roster`
  — one threaded epoch-batch C call per control period for the whole
  shard, controller decisions stepped host-side between calls;
- N-tenant group cells batch too: fixed-split groups join **roster**
  shards (masks straight from their ``GroupSplit``), and ``cluster``
  cells form **cluster** shards — each cell profiles its tenants' way
  utility (one batched sweep call), then every planned split in the
  shard replays in ONE batched roster call. Group ``biased``/``dynamic``
  cells fall back per-cell; their control loops already run one batched
  native call per cell.

Analytical ``shared``/``fair`` cells group into **grid** shards, each
solved by ONE vectorized
:meth:`repro.backend.analytical.AnalyticalBackend.co_run_grid` call.
Only the genuinely unbatchable remainder (analytical ``biased``/
``dynamic``, whose inner loop is the scalar engine) falls back to
per-cell execution fanned out over the exec pool's ``parallel_map``.

Shards are also the checkpoint unit: the runner persists one atomic
RunSet shard file per executed shard, so ``--resume`` granularity and
C-call granularity are the same knob (``shard_size``).
"""

from dataclasses import dataclass, field

from repro.campaign.manifest import MAX_MANIFEST_TENANTS, static_policy_ways
from repro.util.errors import ValidationError

DEFAULT_SHARD_SIZE = 64
DEFAULT_FALLBACK_SHARD_SIZE = 8

# tids for the fg/bg domains of every campaign pair: cores 0 and 2 on
# the four-core hierarchy (matching trace_pair_spec).
FG_TID = 0
BG_TID = 4


def shard_kind_for(cell):
    """The batched shard kind executing this cell, or ``None``.

    ``"roster"`` for fixed-split trace cells, ``"sweep"`` for trace
    ``biased`` (an 11-allocation measured-sweep roster per cell),
    ``"dynamic"`` for trace ``dynamic`` (the epoch-batch kernel driving
    a controller per cell), ``"grid"`` for analytical fixed splits.
    ``None`` means per-cell fallback over the exec pool.
    """
    if cell.backend == "trace":
        if cell.tenants:
            # N-tenant group cells: fixed splits replay as roster
            # shards; `cluster` profiles then replays (its own shard
            # kind); group biased/dynamic stay per-cell — their control
            # loops (utility scoring, churn-aware epoch feedback) run
            # one batched native call per cell already.
            if cell.policy in ("shared", "fair"):
                return "roster"
            if cell.policy == "cluster":
                return "cluster"
            return None
        if cell.policy == "biased":
            return "sweep"
        if cell.policy == "dynamic":
            return "dynamic"
        if (
            cell.policy in ("shared", "fair")
            or static_policy_ways(cell.policy) is not None
        ):
            return "roster"
        return None
    if cell.backend == "analytical":
        return "grid" if cell.policy in ("shared", "fair") else None
    return None


def is_batchable(cell):
    """True when the cell executes inside a batched shard kind.

    Every trace policy is batchable — fixed splits as roster shards,
    ``biased`` as measured-sweep roster shards, ``dynamic`` as
    epoch-batched dynamic-roster shards. Analytical ``shared``/``fair``
    batch into vectorized grid shards; analytical ``biased``/``dynamic``
    stay per-cell (their inner loop is the scalar engine).
    """
    return shard_kind_for(cell) is not None


def split_for(cell, llc_ways=12):
    """The WaySplit a batchable cell runs under (None for non-batchable)."""
    from repro.backend.protocol import WaySplit

    if cell.policy == "shared":
        return WaySplit.shared(llc_ways)
    if cell.policy == "fair":
        return WaySplit.fair(llc_ways)
    ways = static_policy_ways(cell.policy)
    if ways is None:
        return None
    return WaySplit.disjoint(ways, llc_ways)


def trace_spec_for(cell):
    """The backend PairSpec for a trace cell (picklable factories)."""
    from repro.analysis.experiments import trace_pair_spec

    geometry = cell.geometry_dict
    return trace_pair_spec(
        cell.fg,
        cell.bg,
        accesses=int(geometry["accesses"]),
        footprint_mb=float(geometry["footprint_mb"]),
        alpha=float(geometry["alpha"]),
        seed=int(geometry["seed"]),
        bg_footprint_mb=float(geometry["bg_footprint_mb"]),
    )


def trace_group_for(cell):
    """The backend TenantSet for an N-tenant trace cell."""
    from repro.analysis.experiments import trace_group_spec

    geometry = cell.geometry_dict
    return trace_group_spec(
        cell.tenants,
        accesses=int(geometry["accesses"]),
        footprint_mb=float(geometry["footprint_mb"]),
        alpha=float(geometry["alpha"]),
        seed=int(geometry["seed"]),
        bg_footprint_mb=float(geometry["bg_footprint_mb"]),
    )


def group_split_for(cell, llc_ways=12):
    """The GroupSplit a fixed-split group cell runs under.

    Mirrors ``group_shared``/``group_fair`` exactly — including the
    two-tenant fair case, which follows ``WaySplit.fair``'s remainder
    convention — so a roster-replayed group cell is bit-identical to
    the per-cell reference path.
    """
    from repro.backend.protocol import GroupSplit, WaySplit

    n = len(cell.tenants)
    if cell.policy == "shared":
        return GroupSplit.shared(n, llc_ways)
    if cell.policy == "fair":
        if n == 2:
            return GroupSplit.from_pair(WaySplit.fair(llc_ways), llc_ways)
        return GroupSplit.fair(n, llc_ways)
    return None


def backend_for(cell, threads=None):
    """A fresh SimBackend configured for the cell."""
    if cell.backend == "trace":
        from repro.backend import TraceBackend

        geometry = cell.geometry_dict
        controller = cell.controller_dict
        # measured_sweep: biased cells choose from *replayed* splits
        # (one batched roster call), so the per-cell reference path and
        # the sweep-shard path score identical measurements.
        return TraceBackend(
            total_accesses=int(geometry["accesses"]),
            epoch_accesses=int(
                controller.get("epoch_accesses") or 4_000
            ),
            dynamic_total_accesses=controller.get("total_accesses"),
            measured_sweep=True,
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
    that pack, fetched once by content; cells under one policy share its
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
        self._resolved = {}  # distinct trace -> pack (resolve_pack)
        self._mask_index = {}  # (bits, num_ways) -> index into masks
        self._split_masks = {}  # split (and group members) -> mask indices
        self._specs = {}  # (tenants, fg, bg, geometry) -> (spec, members)
        self._splits = {}  # (policy, tenant count) -> split
        # Per row, padded to MAX_MANIFEST_TENANTS slots with -1.
        self._row_members = []
        self._row_masks = []
        self._row_stops = []
        self._row_meta = []  # (spec or group, split) per row
        self._backends = {}  # (geometry, controller, threads) -> backend

    def backend_for(self, cell, threads=None):
        """:func:`backend_for` the cell, one per configuration."""
        key = (cell.geometry, cell.controller, threads)
        backend = self._backends.get(key)
        if backend is None:
            backend = self._backends[key] = backend_for(cell, threads)
        return backend

    def _add_workload(self, workload):
        from repro.workloads.trace import _TraceBase
        from repro.workloads.tracepack import resolve_pack

        trace = workload.trace_factory()
        pack = None
        if isinstance(trace, _TraceBase):
            pack = resolve_pack(trace, self._resolved)
        self.workloads.append(workload)
        self.packs.append(pack)
        return len(self.workloads) - 1

    def spec(self, cell):
        """``(spec, members)``: the cell's PairSpec (or TenantSet for a
        group cell) and its workloads' indices, built on first use."""
        key = (cell.tenants, cell.fg, cell.bg, cell.geometry)
        found = self._specs.get(key)
        if found is None:
            if cell.tenants:
                spec = trace_group_for(cell)
                workloads = spec.tenants
            else:
                spec = trace_spec_for(cell)
                workloads = (spec.fg, spec.bg)
            members = tuple(self._add_workload(w) for w in workloads)
            found = self._specs[key] = (spec, members)
        return found

    def _mask(self, mask):
        key = (mask.bits, mask.num_ways)
        index = self._mask_index.get(key)
        if index is None:
            index = self._mask_index[key] = len(self.masks)
            self.masks.append(mask)
        return index

    def split(self, cell):
        """The fixed split the cell runs under: a WaySplit for a pair
        cell, a GroupSplit for a group cell."""
        key = (cell.policy, len(cell.tenants))
        split = self._splits.get(key)
        if split is None:
            if cell.tenants:
                split = group_split_for(cell, self.llc_ways)
            else:
                split = split_for(cell, self.llc_ways)
            if split is None:
                raise ValidationError(f"cell {cell.cell_id} is not batchable")
            split = self._splits[key] = split
        return split

    def _add_row(self, spec, members, split, stop):
        """A roster row: ``members`` under ``split``'s masks."""
        from repro.backend.protocol import WaySplit

        pair = isinstance(split, WaySplit)
        key = (split.fg_ways, split.bg_ways) if pair else (members, split)
        masks = self._split_masks.get(key)
        if masks is None:
            if pair:
                ways = self.backend.pair_masks(split)
            else:
                by_core = self.backend._group_masks(spec, split)
                ways = [by_core[w.tid // 2] for w in spec.tenants]
            masks = self._split_masks[key] = tuple(map(self._mask, ways))
        pad = (-1,) * (MAX_MANIFEST_TENANTS - len(members))
        self._row_members.append(members + pad)
        self._row_masks.append(masks + pad)
        self._row_stops.append(stop)
        self._row_meta.append((spec, split))
        return len(self._row_members) - 1

    def row(self, cell):
        """A new row for a fixed-split (roster) cell."""
        spec, members = self.spec(cell)
        return self._add_row(
            spec, members, self.split(cell),
            int(cell.geometry_dict["accesses"]),
        )

    def sweep_rows(self, cell):
        """``(spec, splits, rows)`` of a biased cell's measured sweep:
        one row per split of ``TraceBackend.sweep_splits``."""
        spec, members = self.spec(cell)
        splits = self.backend.sweep_splits()
        stop = int(cell.geometry_dict["accesses"])
        rows = [self._add_row(spec, members, s, stop) for s in splits]
        return spec, splits, rows

    def group_row(self, cell, split):
        """The row of a group cell under a split planned at run time."""
        spec, members = self.spec(cell)
        return self._add_row(
            spec, members, split, int(cell.geometry_dict["accesses"])
        )

    def meta(self, row):
        """``(spec or group, split)`` of a row."""
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

    def pack_paths(self):
        """The persisted directories of every pack, for pool workers."""
        from repro.exec import persisted_pack_paths

        return persisted_pack_paths(list(self._resolved.values()))


@dataclass
class ShardPlan:
    """The execution plan: roster, grid, sweep, dynamic, and fallback
    shards.

    Each entry is a list of :class:`~repro.campaign.manifest.CampaignCell`;
    roster shards execute as one batched native call, grid shards as one
    vectorized analytical solve, sweep shards as one batched
    measured-sweep call covering every member cell's 11 allocations,
    dynamic shards as one epoch-batched controller roster, and fallback
    shards as a ``parallel_map`` over per-cell execution. ``skipped``
    counts cells the store already held (resume hits).
    """

    roster_shards: list = field(default_factory=list)
    grid_shards: list = field(default_factory=list)
    sweep_shards: list = field(default_factory=list)
    dynamic_shards: list = field(default_factory=list)
    cluster_shards: list = field(default_factory=list)
    fallback_shards: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def batchable_cells(self):
        return sum(len(shard) for shard in self.roster_shards)

    @property
    def grid_cells(self):
        return sum(len(shard) for shard in self.grid_shards)

    @property
    def sweep_cells(self):
        return sum(len(shard) for shard in self.sweep_shards)

    @property
    def dynamic_cells(self):
        return sum(len(shard) for shard in self.dynamic_shards)

    @property
    def cluster_cells(self):
        return sum(len(shard) for shard in self.cluster_shards)

    @property
    def fallback_cells(self):
        return sum(len(shard) for shard in self.fallback_shards)

    @property
    def total_shards(self):
        return (
            len(self.roster_shards)
            + len(self.grid_shards)
            + len(self.sweep_shards)
            + len(self.dynamic_shards)
            + len(self.cluster_shards)
            + len(self.fallback_shards)
        )

    def shards(self):
        """All shards in deterministic execution order, tagged by kind."""
        for shard in self.roster_shards:
            yield "roster", shard
        for shard in self.grid_shards:
            yield "grid", shard
        for shard in self.sweep_shards:
            yield "sweep", shard
        for shard in self.dynamic_shards:
            yield "dynamic", shard
        for shard in self.cluster_shards:
            yield "cluster", shard
        for shard in self.fallback_shards:
            yield "fallback", shard


def plan_shards(cells, done_ids=(), shard_size=DEFAULT_SHARD_SIZE,
                fallback_shard_size=DEFAULT_FALLBACK_SHARD_SIZE):
    """Split the remaining cells into shards by kind.

    ``done_ids`` holds content addresses already present in the store;
    those cells are skipped without executing anything. The split and
    the shard boundaries are deterministic functions of the cell list,
    so two planners over the same manifest and store agree exactly.
    Sweep shards chunk at ``shard_size // 11`` cells (floor 1), since
    every member contributes an 11-allocation roster to the one batched
    call — a shard's native call stays near ``shard_size`` replay
    cells regardless of kind.
    """
    if shard_size < 1 or fallback_shard_size < 1:
        raise ValidationError("shard sizes must be >= 1")
    done_ids = set(done_ids)
    plan = ShardPlan()
    by_kind = {
        "roster": [], "grid": [], "sweep": [], "dynamic": [],
        "cluster": [], None: [],
    }
    for cell in cells:
        if cell.cell_id in done_ids:
            plan.skipped.append(cell)
        else:
            by_kind[shard_kind_for(cell)].append(cell)

    def chunk(items, size):
        return [items[i:i + size] for i in range(0, len(items), size)]

    plan.roster_shards = chunk(by_kind["roster"], shard_size)
    plan.grid_shards = chunk(by_kind["grid"], shard_size)
    plan.sweep_shards = chunk(by_kind["sweep"], max(1, shard_size // 11))
    plan.dynamic_shards = chunk(by_kind["dynamic"], shard_size)
    # A cluster cell profiles (one 12-allocation sweep call) before its
    # final replay joins the shard's one batched roster call.
    plan.cluster_shards = chunk(by_kind["cluster"], max(1, shard_size // 12))
    plan.fallback_shards = chunk(by_kind[None], fallback_shard_size)
    return plan
