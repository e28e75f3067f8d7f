"""The trace-engine backend: policies over address-level replay.

Wraps :class:`repro.sim.trace_engine.TraceEngine` behind
:class:`~repro.backend.protocol.SimBackend`, so the Section 5 policy
suite (and the dynamic controller) runs against *actual line
replacement* — the mechanism-level ground truth the occupancy model
approximates:

- ``solo`` and ``co_run`` replay compiled trace packs as a one-cell
  :func:`~repro.sim.trace_engine.run_packed_roster` call with the
  split's way masks applied (a fresh hierarchy per run, exactly the
  per-mask methodology; :meth:`TraceBackend.masks` builds the masks,
  one distinct core per tenant);
- a pair's ``sweep`` replays every disjoint split, all eleven as the
  cells of one :func:`~repro.sim.trace_engine.run_packed_roster` call,
  so each entry is a measured co-run and the biased policy returns its
  winner as measured — the same entries campaign ``sweep`` shards
  build;
- ``way_utility`` reads per-tenant ``hits(ways)`` curves from ONE
  profiled co-run (:func:`~repro.sim.trace_engine.way_allocation_sweep`,
  a per-domain UMON), for the cluster policy and the utility-scored
  biased choice of a larger group;
- ``dynamic`` runs a one-cell
  :func:`~repro.sim.trace_engine.run_dynamic_roster` — epoch-resumable
  replay with flush-free reallocation between control periods.

``fg_cost`` is the foreground's average access latency in cycles;
``bg_rate`` is the background's accesses per kilocycle of its own
virtual time. Both are deterministic and identical across the native
and pure-Python kernels.
"""

from repro.backend.protocol import (
    BackendCapabilities,
    GroupMeasurement,
    GroupSplit,
    SimBackend,
    SoloMeasurement,
    WayUtility,
)
from repro.util.errors import ValidationError

DEFAULT_TOTAL_ACCESSES = 120_000
DEFAULT_EPOCH_ACCESSES = 4_000


class TraceBackend(SimBackend):
    """Shared/fair/biased/dynamic over the address-level trace engine."""

    def __init__(self, total_accesses=DEFAULT_TOTAL_ACCESSES,
                 epoch_accesses=DEFAULT_EPOCH_ACCESSES,
                 dynamic_total_accesses=None, native_threads=None):
        if total_accesses < 1:
            raise ValidationError("total_accesses must be positive")
        self.total_accesses = total_accesses
        self.epoch_accesses = epoch_accesses
        self.dynamic_total_accesses = (
            dynamic_total_accesses or total_accesses
        )
        self.native_threads = native_threads

    def capabilities(self):
        from repro.cache.profile import LLC_NUM_WAYS

        return BackendCapabilities(
            name="trace",
            llc_ways=LLC_NUM_WAYS,
            fg_cost_unit="cycles/access",
            bg_rate_unit="accesses/kcycle",
            supports_dynamic=True,
        )

    # -- engine plumbing ----------------------------------------------------

    def masks(self, workloads, split):
        """``{core: WayMask}`` realizing ``split`` over ``workloads``,
        one distinct core per workload (the trace hierarchy maps
        ``tid // 2`` to a core)."""
        from repro.cache.llc import WayMask

        llc_ways = self.capabilities().llc_ways
        masks = {}
        for workload, bits in zip(workloads, split.mask_bits):
            core = workload.tid // 2
            if core in masks:
                raise ValidationError(
                    f"tenants must live on distinct cores; core "
                    f"{core} is claimed twice (tid {workload.tid})"
                )
            masks[core] = WayMask.from_bits(bits, llc_ways)
        return masks

    def roster_cell(self, workloads, split=None):
        """The :class:`~repro.sim.trace_engine.RosterCell` replaying
        ``workloads`` — one workload alone, or a tenant set's tenants —
        on a fresh hierarchy for ``total_accesses``, under ``split``'s
        masks (without one every core keeps the full cache). The
        campaign planner packs many of these into one
        :func:`run_packed_roster` call."""
        from repro.sim.trace_engine import RosterCell

        return RosterCell(
            workloads=list(workloads),
            masks=None if split is None else self.masks(workloads, split),
            total_accesses=self.total_accesses,
        )

    def _replay(self, cell):
        """``{name: TraceStats}`` of one roster cell."""
        from repro.sim.trace_engine import run_packed_roster

        return run_packed_roster([cell], threads=self.native_threads)[0]

    @staticmethod
    def _rate(stats):
        return stats.access_rate_per_kilocycle

    # -- the protocol -------------------------------------------------------

    def solo(self, workload):
        """The workload alone on the whole (unpartitioned) cache."""
        stats = self._replay(self.roster_cell([workload]))
        return SoloMeasurement(
            backend="trace",
            name=workload.name,
            cost=stats[workload.name].avg_latency,
            raw=stats,
        )

    def measurement(self, tenants, split, stats):
        """The GroupMeasurement for one finished replay — shared by
        :meth:`co_run`, :meth:`sweep`, :meth:`dynamic` and the
        campaign's roster and cluster shard executors, so all produce
        field-identical records."""
        tenant_stats = [stats[name] for name in tenants.names]
        return GroupMeasurement(
            backend="trace",
            names=tenants.names,
            split=split,
            costs=tuple([s.avg_latency for s in tenant_stats]),
            rates=tuple([self._rate(s) for s in tenant_stats]),
            raw=stats,
        )

    def co_run(self, tenants, split):
        """Co-run under per-tenant way masks, as a one-cell roster
        through the batched native kernel."""
        stats = self._replay(self.roster_cell(tenants.tenants, split))
        return self.measurement(tenants, split, stats)

    def sweep_entries(self, tenants, splits, outcomes):
        """``[(fg_ways, GroupMeasurement)]`` from replayed sweep stats."""
        out = []
        for split, stats in zip(splits, outcomes):
            measurement = self.measurement(tenants, split, stats)
            measurement.extra["source"] = "measured"
            out.append((split.way_counts[0], measurement))
        return out

    def sweep(self, tenants):
        """Every disjoint split of a pair replayed, in ONE native call.

        The batched kernel runs all 11 allocations as independent cells
        of a roster — each with its own fresh hierarchy copy and its own
        way masks — so the entries are true measurements, bit-identical
        to calling :meth:`co_run` per split, at roughly the cost of one
        replay's Python overhead. Falls back (inside
        ``run_packed_roster``) to the sequential per-split path when the
        batch kernel is unavailable; results are identical either way.
        """
        from repro.sim.trace_engine import run_packed_roster

        splits = self.disjoint_splits()
        outcomes = run_packed_roster(
            [self.roster_cell(tenants.tenants, s) for s in splits],
            threads=self.native_threads,
        )
        return self.sweep_entries(tenants, splits, outcomes)

    def dynamic_roster_cell(self, tenants, controller=None):
        """The :class:`~repro.sim.trace_engine.DynamicRosterCell`
        realizing one dynamic cell, with the default controller treating
        tenant 0 as the foreground and the rest as peers sharing the
        complement mask — the campaign runner packs many of these into
        one :func:`run_dynamic_roster` call."""
        from repro.core.dynamic import DynamicPartitionController
        from repro.sim.trace_engine import DynamicRosterCell

        if controller is None:
            controller = DynamicPartitionController(
                fg_name=tenants.names[0], bg_name=tenants.names[1:]
            )
        return DynamicRosterCell(
            workloads=list(tenants.tenants),
            controller=controller,
            epoch_accesses=self.epoch_accesses,
            total_accesses=self.dynamic_total_accesses,
        )

    def dynamic_measurement(self, tenants, controller, result):
        """The GroupMeasurement for one finished dynamic replay, under
        the controller's final masks — shared by :meth:`dynamic` and the
        campaign's dynamic-roster shard executor, so both produce
        field-identical records."""
        masks = controller.masks()
        split = GroupSplit(
            tuple(masks[name].bits for name in tenants.names),
            self.capabilities().llc_ways,
        )
        measurement = self.measurement(tenants, split, result.stats)
        measurement.extra = _dynamic_extra(controller, result)
        return measurement

    def dynamic(self, tenants, controller=None):
        """Epoch-resumable replay under a dynamic controller (the
        Algorithm 6.2 controller by default, or any controller speaking
        the ``masks()``/``on_tick()`` protocol — churn schedules
        included), as a one-cell dynamic roster through the flush-free
        mask hand-off of the epoch-batch kernel
        (:func:`~repro.sim.trace_engine.run_dynamic_roster`)."""
        from repro.sim.trace_engine import run_dynamic_roster

        self.masks(tenants.tenants, GroupSplit.shared(
            len(tenants.tenants), self.capabilities().llc_ways
        ))  # distinct-core validation up front
        cell = self.dynamic_roster_cell(tenants, controller)
        result = run_dynamic_roster([cell], threads=self.native_threads)[0]
        return self.dynamic_measurement(tenants, cell.controller, result)

    def way_utility(self, tenants):
        """Per-tenant way-utility curves from ONE profiled co-run (the
        single-pass UMON directories of
        :func:`~repro.sim.trace_engine.way_allocation_sweep`)."""
        from repro.sim.trace_engine import way_allocation_sweep

        llc_ways = self.capabilities().llc_ways
        _, curves = way_allocation_sweep(
            list(tenants.tenants), total_accesses=self.total_accesses
        )
        out = {}
        for tenant, name in zip(tenants.tenants, tenants.names):
            curve = curves[tenant.tid // 2]
            hits = tuple(
                float(curve.hits(w)) for w in range(1, llc_ways + 1)
            )
            accesses = float(curve.hits(llc_ways) + curve.misses(llc_ways))
            out[name] = WayUtility(
                name=name, hits_by_ways=hits, accesses=accesses
            )
        return out


def _dynamic_extra(controller, result):
    """The ``extra`` of a dynamic measurement: the controller and the
    :class:`~repro.sim.trace_engine.DynamicTraceResult` it drove."""
    extra = {
        "controller": controller,
        "actions": result.actions,
        "timeline": result.timeline,
        "epochs": result.epochs,
        "native": result.native,
        "result": result,
    }
    lifetime = getattr(controller, "lifetime", None)
    if lifetime is not None:
        extra["lifetime"] = lifetime
    return extra


__all__ = ["TraceBackend"]
