"""Sharded, checkpointed, resumable campaign execution.

``run_campaign`` is the fleet driver: it expands a manifest, drops every
cell whose content-addressed record already sits in the store, plans the
remainder into shards, and executes shard by shard, each kind as
:data:`repro.campaign.planner.SHARD_KINDS` describes it. After each
shard the records land in a uniquely named, atomically written RunSet
shard file (:func:`repro.analysis.store.save_runset_shard`), so a
campaign killed at any point resumes by re-running only what is
missing; a completed campaign resumed again replays zero cells
(counter-verifiable via ``campaign-cells-run`` / ``trace-accesses``).

Failures are retried with bounded attempts; the attempt count that
finally succeeded is recorded in every record's provenance, AutoPerf
style, so flaky hosts are visible in the data rather than silently
absorbed.
"""

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.store import (
    RunSet,
    load_runset_dir,
    record_from_group_outcome,
    record_from_outcome,
    save_runset_shard,
)
from repro.campaign.manifest import expand_manifest, static_policy_ways
from repro.campaign.planner import (
    TraceTable,
    backend_for,
    plan_shards,
    split_for,
    tenants_for,
)
from repro.perf import engine_counters as ec
from repro.util.errors import ReproError, ValidationError

DEFAULT_MAX_ATTEMPTS = 2


@dataclass
class CampaignResult:
    """What one ``run_campaign`` invocation did."""

    manifest_name: str
    store_dir: str
    cells_total: int = 0
    cells_skipped: int = 0
    cells_run: int = 0
    # kind -> shards planned (kinds of repro.campaign.planner.SHARD_KINDS)
    shards_by_kind: Counter = field(default_factory=Counter)
    shards_written: int = 0
    retries: int = 0
    stopped_early: bool = False
    records: dict = field(default_factory=dict)  # cell_id -> RunRecord

    @property
    def complete(self):
        return self.cells_skipped + self.cells_run == self.cells_total


def _units_for(cell):
    if cell.backend == "trace":
        return {"fg_cost": "cycles/access", "bg_rate": "accesses/kcycle"}
    return {"fg_cost": "s", "bg_rate": "instr/s"}


def _cell_provenance(cell, source, attempts=1):
    prov = {
        "cell_id": cell.cell_id,
        "source": source,
        "attempts": attempts,
        "geometry": cell.geometry_dict,
    }
    if cell.policy == "dynamic":
        prov["controller"] = cell.controller_dict
    if cell.churn:
        prov["churn"] = cell.churn_spec
    return prov


def _record(cell, outcome, source):
    """The RunRecord of one cell's :class:`PolicyOutcome`: a group
    record for a ``tenants`` cell, a pair record otherwise. Every shard
    kind and the per-cell reference path build records here, so they
    are comparable bit for bit."""
    build = record_from_group_outcome if cell.tenants else record_from_outcome
    return build(
        outcome,
        units=_units_for(cell),
        provenance=_cell_provenance(cell, source=source),
    )


def _group_controller_for(cell, backend, group):
    """The churn controller for a dynamic group cell (None otherwise)."""
    if not cell.churn:
        return None
    from repro.workloads.churn import ChurnController, ChurnSchedule

    return ChurnController(
        group.names,
        ChurnSchedule.from_spec(cell.churn_spec),
        llc_ways=backend.capabilities().llc_ways,
    )


def run_campaign_cell(cell):
    """Execute ONE cell on a fresh backend; returns its RunRecord.

    This is the sequential per-cell reference path, which fallback
    shards fan out over the exec pool, and the ground truth the roster
    shards must match bit for bit.
    """
    from repro.core.policies import PolicyOutcome, run_policy

    backend = backend_for(cell)
    tenants = tenants_for(cell)
    if static_policy_ways(cell.policy) is not None:
        split = split_for(cell, backend.capabilities().llc_ways)
        outcome = PolicyOutcome(cell.policy, backend.co_run(tenants, split))
    else:
        outcome = run_policy(
            backend,
            tenants,
            cell.policy,
            controller=_group_controller_for(cell, backend, tenants),
        )
    return _record(cell, outcome, "cell")


def _roster_record(cell, table, row, stats, source, plan=None):
    """A RunRecord from one replayed row of the table's roster, built
    from the same GroupMeasurement the reference path's ``co_run``
    would."""
    from repro.core.policies import PolicyOutcome

    tenants, split = table.meta(row)
    m = table.backend.measurement(tenants, split, stats)
    return _record(cell, PolicyOutcome(cell.policy, m, plan=plan), source)


def _execute_roster_shard(shard, table, threads, workers):
    """One batched native call for a whole shard of fixed-mask cells.

    Each cell is one row of the run's :class:`TraceTable`: indices of
    its workloads and of its split's masks, resolved once per run. Pair
    cells and N-tenant group cells share the roster.
    """
    from repro.sim.trace_engine import run_packed_roster

    rows = [table.row(cell) for cell in shard]
    outcomes = run_packed_roster(table.roster(rows), threads=threads)
    return [
        _roster_record(cell, table, row, stats, "roster")
        for cell, row, stats in zip(shard, rows, outcomes)
    ]


def _execute_cluster_shard(shard, table, threads, workers):
    """Profile-then-replay for a whole shard of cluster cells.

    Each cell profiles its tenants' way-utility curves (one batched
    sweep call per cell, exactly what the reference path measures),
    plans the LFOC-style split host-side, and then every planned split
    in the shard replays in ONE batched roster call.
    """
    from repro.core.clustering import cluster_tenants
    from repro.sim.trace_engine import run_packed_roster

    plans, rows = [], []
    for cell in shard:
        tenants, _ = table.spec(cell)
        utilities = table.backend_for(cell, threads).way_utility(tenants)
        plan = cluster_tenants(utilities, names=tenants.names,
                               llc_ways=table.llc_ways)
        plans.append(plan)
        rows.append(table.group_row(cell, plan.split))
    outcomes = run_packed_roster(table.roster(rows), threads=threads)
    return [
        _roster_record(cell, table, row, stats, "cluster", plan=plan)
        for cell, plan, row, stats in zip(shard, plans, rows, outcomes)
    ]


def _execute_grid_shard(shard, table, threads, workers):
    """One analytical ``co_run_grid`` batch for a whole shard of cells.

    Builds the same ``(tenants, split)`` items the per-cell reference
    path would measure one at a time and hands them to
    ``co_run_grid``, so grid records and per-cell reference records are
    comparable bit for bit.
    """
    from repro.backend import AnalyticalBackend
    from repro.core.policies import PolicyOutcome

    backend = AnalyticalBackend()
    llc_ways = backend.capabilities().llc_ways
    items = [(tenants_for(cell), split_for(cell, llc_ways)) for cell in shard]
    measurements = backend.co_run_grid(items)
    return [
        _record(cell, PolicyOutcome(cell.policy, m), "grid")
        for cell, m in zip(shard, measurements)
    ]


def _execute_sweep_shard(shard, table, threads, workers):
    """One batched call for a whole shard of biased cells.

    Every cell's 11-allocation sweep joins one call: on traces one
    concatenated roster replay, analytically one
    :meth:`~repro.backend.analytical.AnalyticalBackend.sweeps` grid
    solve. The winner is then chosen from each cell's entries by the
    ordinary ``policy_biased`` selection rule. Because the entries are
    real co-runs (``raw`` is set), nothing is re-measured, and the
    records are field-identical to the per-cell reference path, which
    scores the same sweep.
    """
    from repro.core.policies import policy_biased

    records = []
    for cell, (backend, tenants, entries) in zip(
        shard, _sweeps(shard, table, threads)
    ):
        outcome = policy_biased(backend, tenants, sweep=entries)
        records.append(_record(cell, outcome, "sweep"))
    return records


def _sweeps(shard, table, threads):
    """``(backend, tenants, entries)`` per cell of a one-backend sweep
    shard."""
    if shard[0].backend == "analytical":
        backend = backend_for(shard[0])
        tenant_sets = [tenants_for(cell) for cell in shard]
        return [
            (backend, tenants, entries)
            for tenants, entries in zip(
                tenant_sets, backend.sweeps(tenant_sets)
            )
        ]
    from repro.sim.trace_engine import run_packed_roster

    built = []
    rows = []
    for cell in shard:
        tenants, splits, cell_rows = table.sweep_rows(cell)
        built.append((tenants, splits, len(cell_rows)))
        rows.extend(cell_rows)
    outcomes = run_packed_roster(table.roster(rows), threads=threads)
    out = []
    offset = 0
    for cell, (tenants, splits, width) in zip(shard, built):
        backend = table.backend_for(cell, threads)
        entries = backend.sweep_entries(
            tenants, splits, outcomes[offset:offset + width]
        )
        offset += width
        out.append((backend, tenants, entries))
    return out


def _execute_dynamic_shard(shard, table, threads, workers):
    """One dynamic roster for a whole shard of cells.

    On traces, all cells advance one control period per threaded
    epoch-batch C call, every controller stepping host-side between
    calls (:func:`repro.sim.trace_engine.run_dynamic_roster`).
    Analytically, each cell runs on its own machine and the roster
    advances in lockstep, solving each round's memo misses together
    (:meth:`repro.backend.analytical.AnalyticalBackend.dynamic_roster`).
    Each cell gets its own fresh controller, so records — including the
    reallocation count in provenance — are field-identical to the
    per-cell reference path.
    """
    from repro.core.policies import PolicyOutcome

    return [
        _record(cell, PolicyOutcome("dynamic", m), "dynamic")
        for cell, m in zip(shard, _dynamic_measurements(shard, table, threads))
    ]


def _dynamic_measurements(shard, table, threads):
    """The dynamic measurement per cell of a one-backend shard."""
    if shard[0].backend == "analytical":
        from repro.backend import AnalyticalBackend

        return AnalyticalBackend.dynamic_roster(
            (backend_for(cell), tenants_for(cell)) for cell in shard
        )
    from repro.sim.trace_engine import run_dynamic_roster

    built = []
    for cell in shard:
        backend = table.backend_for(cell, threads)
        tenants, _ = table.spec(cell)
        built.append((backend, tenants, backend.dynamic_roster_cell(tenants)))
    results = run_dynamic_roster(
        [roster_cell for _, _, roster_cell in built], threads=threads
    )
    return [
        backend.dynamic_measurement(tenants, roster_cell.controller, result)
        for (backend, tenants, roster_cell), result in zip(built, results)
    ]


def _execute_fallback_shard(shard, table, threads, workers):
    """``run_campaign_cell`` per cell over the exec pool; fork workers
    inherit the packs the table opened instead of regenerating traces."""
    from repro.exec import parallel_map

    return parallel_map(run_campaign_cell, shard, workers=workers)


# Every kind of repro.campaign.planner.SHARD_KINDS and its executor:
# ``execute(shard, table, threads, workers)`` returns the shard's
# records in cell order.
_EXECUTORS = {
    "roster": _execute_roster_shard,
    "grid": _execute_grid_shard,
    "sweep": _execute_sweep_shard,
    "dynamic": _execute_dynamic_shard,
    "cluster": _execute_cluster_shard,
    "fallback": _execute_fallback_shard,
}


def _materialize_packs(cells):
    """Resolve every trace workload and pack the campaign will replay,
    ONCE; returns the run's :class:`TraceTable`.

    This is where the run's packs are opened (or compiled): every later
    ``get_pack`` of the run — roster and sweep shards through the
    table, dynamic and cluster rosters and fallback cells through
    :meth:`~repro.sim.trace_engine.TraceWorkload.pack` — finds the one
    pack object the process registry already holds, and fork pool
    workers inherit that registry, so no worker regenerates or receives
    a trace array.
    """
    table = TraceTable()
    for cell in cells:
        if cell.backend == "trace":
            table.spec(cell)
    return table


def _existing_records(store_dir):
    """``{cell_id: record}`` for everything already persisted."""
    import os

    if not os.path.isdir(store_dir):
        return {}
    from repro.analysis.store import list_runset_shards

    if not list_runset_shards(store_dir):
        return {}
    merged = load_runset_dir(store_dir)
    out = {}
    for record in merged.records:
        cell_id = record.provenance.get("cell_id")
        if cell_id:
            out[cell_id] = record
    return out


def _retrying(execute, shard, max_attempts):
    """Run ``execute()`` with bounded retries; returns (records, attempts)."""
    last = None
    for attempt in range(1, max_attempts + 1):
        try:
            return execute(), attempt
        except (KeyboardInterrupt, SystemExit):
            raise
        except ReproError:
            # Deterministic misconfiguration: retrying cannot change it.
            raise
        except Exception as exc:
            last = exc
            ec.add(ec.CAMPAIGN_RETRIES)
    raise ValidationError(
        f"shard of {len(shard)} cells failed after {max_attempts} "
        f"attempts; last error: {last!r}"
    ) from last


def run_campaign(manifest, store_dir, cells=None, resume=False,
                 shard_size=None, threads=None, workers=None,
                 max_attempts=DEFAULT_MAX_ATTEMPTS, stop_after_shards=None):
    """Execute a campaign into a multi-shard RunSet store.

    ``resume=True`` loads the store first and skips every cell whose
    content address is already present (a fully persisted campaign
    replays nothing); ``resume=False`` insists on an empty store so a
    stale directory can never silently absorb a new campaign.
    ``stop_after_shards`` ends the run early after N persisted shards — a
    graceful preemption used by the resume tests and operable as a
    time-slicing knob.
    """
    from repro.campaign.planner import DEFAULT_SHARD_SIZE

    if cells is None:
        cells = expand_manifest(manifest)
    done = _existing_records(store_dir)
    if done and not resume:
        raise ValidationError(
            f"store {store_dir} already holds {len(done)} records; pass "
            "resume=True (--resume) to continue it, or use a fresh "
            "directory"
        )

    plan = plan_shards(
        cells,
        done_ids=done if resume else (),
        shard_size=(
            shard_size if shard_size is not None else DEFAULT_SHARD_SIZE
        ),
    )

    result = CampaignResult(
        manifest_name=manifest.name,
        store_dir=store_dir,
        cells_total=len(cells),
        cells_skipped=len(plan.skipped),
        shards_by_kind=Counter(kind for kind, _ in plan.shards),
    )
    for cell in plan.skipped:
        result.records[cell.cell_id] = done[cell.cell_id]
    ec.add(ec.CAMPAIGN_CELLS_SKIPPED, len(plan.skipped))

    pending = [cell for _, shard in plan.shards for cell in shard]
    table = _materialize_packs(pending)

    for kind, shard in plan.shards:
        execute = _EXECUTORS[kind]
        records, attempts = _retrying(
            lambda: execute(shard, table, threads, workers),
            shard,
            max_attempts,
        )
        if attempts > 1:
            for record in records:
                record.provenance["attempts"] = attempts
        result.retries += attempts - 1
        shard_set = RunSet(
            records=records,
            backend="|".join(sorted({r.backend for r in records})),
            model_version=_model_version(),
            meta={
                "campaign": manifest.name,
                "shard_kind": kind,
                "cells": len(records),
            },
        )
        save_runset_shard(shard_set, store_dir)
        for record in records:
            result.records[record.provenance["cell_id"]] = record
        result.cells_run += len(records)
        result.shards_written += 1
        ec.add(ec.CAMPAIGN_SHARDS)
        ec.add(ec.CAMPAIGN_CELLS_RUN, len(records))
        if (
            stop_after_shards is not None
            and result.shards_written >= stop_after_shards
            and result.cells_skipped + result.cells_run < result.cells_total
        ):
            result.stopped_early = True
            break
    return result


def _model_version():
    from repro import __version__

    return __version__


def verify_campaign(manifest, store_dir, cells=None, stride=1):
    """Re-run cells sequentially and compare against stored records.

    Every ``stride``-th cell (all by default) is executed through the
    per-cell reference path on a fresh backend and its metrics compared
    *exactly* — both paths are deterministic, so any drift means the
    roster translation broke. Returns the number of cells verified;
    raises :class:`ValidationError` on the first mismatch or missing
    record.
    """
    if cells is None:
        cells = expand_manifest(manifest)
    stored = _existing_records(store_dir)
    checked = 0
    for cell in cells[::max(1, stride)]:
        record = stored.get(cell.cell_id)
        if record is None:
            raise ValidationError(
                f"store {store_dir} has no record for cell "
                f"{cell.cell_id} ({cell.policy} {cell.fg}+{cell.bg})"
            )
        reference = run_campaign_cell(cell)
        if reference.metrics != record.metrics:
            raise ValidationError(
                f"cell {cell.cell_id} ({cell.policy} {cell.fg}+{cell.bg}): "
                f"stored metrics {record.metrics} != reference "
                f"{reference.metrics}"
            )
        checked += 1
    return checked


__all__ = [
    "CampaignResult",
    "run_campaign",
    "run_campaign_cell",
    "verify_campaign",
]
