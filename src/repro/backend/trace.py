"""The trace-engine backend: policies over address-level replay.

Wraps :class:`repro.sim.trace_engine.TraceEngine` behind
:class:`~repro.backend.protocol.SimBackend`, so the Section 5 policy
suite (and the dynamic controller) runs against *actual line
replacement* — the mechanism-level ground truth the occupancy model
approximates:

- ``solo`` and ``co_run`` replay compiled trace packs as a one-cell
  :func:`~repro.sim.trace_engine.run_packed_roster` call with the
  split's way masks applied (a fresh hierarchy per run, exactly the
  per-mask methodology; :meth:`TraceBackend.roster_cell` builds the
  masks);
- ``sweep`` does NOT re-simulate per split: one profiled co-run
  (:func:`repro.sim.trace_engine.way_allocation_sweep`, a per-domain
  UMON) yields exact ``hits(ways)`` curves, and every disjoint split is
  scored from those curves — foreground cost as misses at its
  allocation, background rate as hits at the complement. The biased
  policy then measures only its chosen split;
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
    CoRunMeasurement,
    GroupMeasurement,
    GroupSplit,
    PairSpec,
    SimBackend,
    SoloMeasurement,
    TenantSet,
    WaySplit,
    WayUtility,
)
from repro.util.errors import ValidationError

DEFAULT_TOTAL_ACCESSES = 120_000
DEFAULT_EPOCH_ACCESSES = 4_000


class TraceBackend(SimBackend):
    """Shared/fair/biased/dynamic over the address-level trace engine."""

    def __init__(self, total_accesses=DEFAULT_TOTAL_ACCESSES,
                 epoch_accesses=DEFAULT_EPOCH_ACCESSES,
                 dynamic_total_accesses=None, measured_sweep=False,
                 native_threads=None):
        if total_accesses < 1:
            raise ValidationError("total_accesses must be positive")
        self.total_accesses = total_accesses
        self.epoch_accesses = epoch_accesses
        self.dynamic_total_accesses = (
            dynamic_total_accesses or total_accesses
        )
        self.measured_sweep = measured_sweep
        self.native_threads = native_threads

    def capabilities(self):
        from repro.cache.profile import LLC_NUM_WAYS

        return BackendCapabilities(
            name="trace",
            llc_ways=LLC_NUM_WAYS,
            fg_cost_unit="cycles/access",
            bg_rate_unit="accesses/kcycle",
            sweep_is_measured=self.measured_sweep,
            supports_dynamic=True,
            supports_energy=False,
        )

    # -- engine plumbing ----------------------------------------------------

    def roster_cell(self, workloads, split=None):
        """The :class:`~repro.sim.trace_engine.RosterCell` replaying
        ``workloads`` — one workload alone, or a pair's ``[fg, bg]`` —
        on a fresh hierarchy for ``total_accesses``.

        Under ``split`` the foreground's ways run from way 0 up and the
        background's from the top down; without one every core keeps
        the full cache.
        """
        from repro.sim.trace_engine import RosterCell

        masks = None
        if split is not None:
            fg, bg = workloads
            fg_mask, bg_mask = self.pair_masks(split)
            masks = {fg.tid // 2: fg_mask, bg.tid // 2: bg_mask}
        return RosterCell(
            workloads=list(workloads),
            masks=masks,
            total_accesses=self.total_accesses,
        )

    def pair_masks(self, split):
        """``(fg, bg)`` way masks of a pair split: the foreground's ways
        run from way 0 up, the background's from the top down."""
        from repro.cache.llc import WayMask

        llc_ways = self.capabilities().llc_ways
        return (
            WayMask.contiguous(split.fg_ways, 0, llc_ways),
            WayMask.contiguous(
                split.bg_ways, llc_ways - split.bg_ways, llc_ways
            ),
        )

    def sweep_splits(self):
        """Every disjoint split a measured sweep replays, 1 to W - 1
        foreground ways."""
        llc_ways = self.capabilities().llc_ways
        return [
            WaySplit.disjoint(fg_ways, llc_ways)
            for fg_ways in range(1, llc_ways)
        ]

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

    def pair_measurement(self, spec, split, stats):
        """The CoRunMeasurement for one finished pair replay — shared by
        :meth:`co_run`, the measured sweep and the campaign's roster
        shard executor, so all produce field-identical records."""
        return CoRunMeasurement(
            backend="trace",
            fg_name=spec.fg_name,
            bg_name=spec.bg_name,
            fg_ways=split.fg_ways,
            bg_ways=split.bg_ways,
            fg_cost=stats[spec.fg_name].avg_latency,
            bg_rate=self._rate(stats[spec.bg_name]),
            raw=stats,
        )

    def co_run(self, spec, split):
        stats = self._replay(self.roster_cell([spec.fg, spec.bg], split))
        return self.pair_measurement(spec, split, stats)

    def sweep_entries(self, spec, splits, outcomes):
        """``[(fg_ways, CoRunMeasurement)]`` from replayed sweep stats."""
        out = []
        for split, stats in zip(splits, outcomes):
            measurement = self.pair_measurement(spec, split, stats)
            measurement.extra["source"] = "measured"
            out.append((split.fg_ways, measurement))
        return out

    def _measured_sweep(self, spec):
        """Every disjoint split actually replayed, in ONE native call.

        The batched kernel runs all 11 allocations as independent cells
        of a roster — each with its own fresh hierarchy copy and its own
        way masks — so the entries are true measurements, bit-identical
        to calling :meth:`co_run` per split, at roughly the cost of one
        replay's Python overhead. Falls back (inside
        ``run_packed_roster``) to the sequential per-split path when the
        batch kernel is unavailable; results are identical either way.
        """
        from repro.sim.trace_engine import run_packed_roster

        splits = self.sweep_splits()
        pair = [spec.fg, spec.bg]
        outcomes = run_packed_roster(
            [self.roster_cell(pair, s) for s in splits],
            threads=self.native_threads,
        )
        return self.sweep_entries(spec, splits, outcomes)

    def sweep(self, spec):
        """Every disjoint split, scored from ONE profiled co-run.

        The per-domain stack-distance curves are exact under true LRU
        (what the UMON directories model), so the scores rank splits
        exactly as per-mask re-simulation of the profiled stream would —
        without 11 replays. Entries are scores, not measurements
        (``sweep_is_measured=False``): the policy layer re-measures the
        split it finally picks with :meth:`co_run`.

        With ``measured_sweep=True`` every split is instead *replayed*
        through the batched native kernel (one C call for the whole
        sweep) and the entries are real measurements — see
        :meth:`_measured_sweep`.
        """
        from repro.sim.trace_engine import way_allocation_sweep

        if self.measured_sweep:
            return self._measured_sweep(spec)

        llc_ways = self.capabilities().llc_ways
        _, curves = way_allocation_sweep(
            [spec.fg, spec.bg], total_accesses=self.total_accesses
        )
        fg_curve = curves[spec.fg.tid // 2]
        bg_curve = curves[spec.bg.tid // 2]
        out = []
        for fg_ways in range(1, llc_ways):
            bg_ways = llc_ways - fg_ways
            out.append(
                (
                    fg_ways,
                    CoRunMeasurement(
                        backend="trace",
                        fg_name=spec.fg_name,
                        bg_name=spec.bg_name,
                        fg_ways=fg_ways,
                        bg_ways=bg_ways,
                        fg_cost=float(fg_curve.misses(fg_ways)),
                        bg_rate=float(bg_curve.hits(bg_ways)),
                        raw=None,
                        extra={"source": "profile"},
                    ),
                )
            )
        return out

    def dynamic_roster_cell(self, spec, controller=None):
        """The :class:`~repro.sim.trace_engine.DynamicRosterCell`
        realizing one dynamic cell, with the default controller the
        per-cell reference path would build — the campaign runner packs
        many of these into one :func:`run_dynamic_roster` call."""
        from repro.core.dynamic import DynamicPartitionController
        from repro.sim.trace_engine import DynamicRosterCell

        if controller is None:
            controller = DynamicPartitionController(
                fg_name=spec.fg_name, bg_name=spec.bg_name
            )
        return DynamicRosterCell(
            workloads=[spec.fg, spec.bg],
            controller=controller,
            epoch_accesses=self.epoch_accesses,
            total_accesses=self.dynamic_total_accesses,
        )

    def dynamic_measurement(self, spec, controller, result):
        """The CoRunMeasurement for one finished dynamic replay —
        shared by :meth:`dynamic` and the campaign's dynamic-roster
        shard executor, so both produce field-identical records."""
        llc_ways = self.capabilities().llc_ways
        return CoRunMeasurement(
            backend="trace",
            fg_name=spec.fg_name,
            bg_name=spec.bg_name,
            fg_ways=controller.fg_ways,
            bg_ways=llc_ways - controller.fg_ways,
            fg_cost=result.stats[spec.fg_name].avg_latency,
            bg_rate=self._rate(result.stats[spec.bg_name]),
            raw=result.stats,
            extra=_dynamic_extra(controller, result),
        )

    def dynamic(self, spec, controller=None):
        """Epoch-resumable replay under the dynamic controller.

        Runs as a one-cell dynamic roster through the batched epoch
        kernel (:func:`~repro.sim.trace_engine.run_dynamic_roster`),
        which falls back to the sequential ``run_dynamic`` driver —
        bit-identical either way — when the epoch-batch kernel is
        unavailable or the cell is not batchable.
        """
        from repro.sim.trace_engine import run_dynamic_roster

        cell = self.dynamic_roster_cell(spec, controller)
        result = run_dynamic_roster([cell], threads=self.native_threads)[0]
        return self.dynamic_measurement(spec, cell.controller, result)

    # -- N-tenant groups ----------------------------------------------------

    def _group_masks(self, group, split):
        """``{core: WayMask}`` for a group cell, one distinct core per
        tenant (the trace hierarchy maps ``tid // 2`` to a core)."""
        from repro.cache.llc import WayMask

        llc_ways = self.capabilities().llc_ways
        masks = {}
        for tenant, bits in zip(group.tenants, split.mask_bits):
            core = tenant.tid // 2
            if core in masks:
                raise ValidationError(
                    f"group tenants must live on distinct cores; core "
                    f"{core} is claimed twice (tid {tenant.tid})"
                )
            masks[core] = WayMask.from_bits(bits, llc_ways)
        return masks

    def group_roster_cell(self, group, split):
        """The :class:`~repro.sim.trace_engine.RosterCell` realizing one
        N-tenant co-run — the campaign planner packs many of these into
        one :func:`run_packed_roster` call."""
        from repro.sim.trace_engine import RosterCell

        return RosterCell(
            workloads=list(group.tenants),
            masks=self._group_masks(group, split),
            total_accesses=self.total_accesses,
        )

    def group_measurement(self, group, split, stats):
        """The GroupMeasurement for one finished group replay — shared
        by :meth:`co_run_group` and the campaign's roster/cluster shard
        executors, so both produce field-identical records."""
        return GroupMeasurement(
            backend="trace",
            names=tuple(group.names),
            split=split,
            costs=tuple(stats[n].avg_latency for n in group.names),
            rates=tuple(self._rate(stats[n]) for n in group.names),
            raw=stats,
        )

    def co_run_group(self, group, split):
        """Co-run N tenants under per-tenant way masks.

        Pair-shaped 2-tenant groups delegate to :meth:`co_run` (bit-
        identical to the seed pair path). Larger groups replay as a
        one-cell roster through the batched native kernel.
        """
        measurement = self._pair_group_measurement(group, split)
        if measurement is not None:
            return measurement
        stats = self._replay(self.group_roster_cell(group, split))
        return self.group_measurement(group, split, stats)

    def group_dynamic_roster_cell(self, group, controller=None):
        """The DynamicRosterCell realizing one dynamic group cell, with
        the default controller treating tenant 0 as the foreground and
        the rest as peers sharing the complement mask."""
        from repro.core.dynamic import DynamicPartitionController
        from repro.sim.trace_engine import DynamicRosterCell

        if controller is None:
            controller = DynamicPartitionController(
                fg_name=group.names[0], bg_name=tuple(group.names[1:])
            )
        return DynamicRosterCell(
            workloads=list(group.tenants),
            controller=controller,
            epoch_accesses=self.epoch_accesses,
            total_accesses=self.dynamic_total_accesses,
        )

    def group_dynamic_measurement(self, group, controller, result):
        llc_ways = self.capabilities().llc_ways
        masks = controller.masks()
        split = GroupSplit(
            tuple(masks[name].bits for name in group.names), llc_ways
        )
        extra = _dynamic_extra(controller, result)
        lifetime = getattr(controller, "lifetime", None)
        if lifetime is not None:
            extra["lifetime"] = lifetime
        measurement = self.group_measurement(group, split, result.stats)
        measurement.extra = extra
        return measurement

    def dynamic_group(self, group, controller=None):
        """N-tenant epoch-resumable replay under a dynamic controller
        (the Algorithm 6.2 controller with peers, or a churn schedule),
        through the flush-free mask hand-off of the epoch-batch kernel.
        """
        if len(group.tenants) == 2 and controller is None:
            return SimBackend.dynamic_group(self, group, controller=None)
        from repro.sim.trace_engine import run_dynamic_roster

        self._group_masks(group, GroupSplit.shared(
            len(group.tenants), self.capabilities().llc_ways
        ))  # distinct-core validation up front
        cell = self.group_dynamic_roster_cell(group, controller)
        result = run_dynamic_roster([cell], threads=self.native_threads)[0]
        return self.group_dynamic_measurement(group, cell.controller, result)

    def way_utility(self, group):
        """Per-tenant way-utility curves from ONE profiled group co-run
        (the same single-pass UMON directories :meth:`sweep` uses)."""
        from repro.sim.trace_engine import way_allocation_sweep

        llc_ways = self.capabilities().llc_ways
        _, curves = way_allocation_sweep(
            list(group.tenants), total_accesses=self.total_accesses
        )
        out = {}
        for tenant, name in zip(group.tenants, group.names):
            curve = curves[tenant.tid // 2]
            hits = tuple(
                float(curve.hits(w)) for w in range(1, llc_ways + 1)
            )
            accesses = float(curve.hits(llc_ways) + curve.misses(llc_ways))
            out[name] = WayUtility(
                name=name, hits_by_ways=hits, accesses=accesses
            )
        return out

    # Convenience used by the CLI, bench, and tests.
    @staticmethod
    def pair_spec(fg_factory, bg_factory, fg_name="fg", bg_name="bg",
                  fg_tid=0, bg_tid=4, fg_think=6, bg_think=2, **options):
        """A PairSpec from two picklable trace factories."""
        from repro.sim.trace_engine import TraceWorkload

        return PairSpec(
            fg=TraceWorkload(fg_name, fg_factory, tid=fg_tid,
                             think_cycles=fg_think),
            bg=TraceWorkload(bg_name, bg_factory, tid=bg_tid,
                             think_cycles=bg_think),
            options=options,
        )


def _dynamic_extra(controller, result):
    """The ``extra`` of a dynamic measurement: the controller and the
    :class:`~repro.sim.trace_engine.DynamicTraceResult` it drove."""
    return {
        "controller": controller,
        "actions": result.actions,
        "timeline": result.timeline,
        "epochs": result.epochs,
        "native": result.native,
        "result": result,
    }


__all__ = ["GroupSplit", "TenantSet", "TraceBackend", "WaySplit"]
