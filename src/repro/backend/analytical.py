"""The interval-engine backend: policies over ``Machine`` step generators.

Wraps :class:`repro.sim.engine.Machine` (and its IntervalMemo and shared
solo cache) behind :class:`~repro.backend.protocol.SimBackend`. A pair
on a pair-shaped split maps exactly to what the pre-backend policy code
did — the same ``paper_pair_allocations`` masks, the same ``run_pair``
runs in the same order — so policy outcomes through this backend are
bit-identical to the seed implementation. Every other tenant set and
split runs through ``Machine.run_group``. Each co-run is a step
generator of the machine (:meth:`AnalyticalBackend.co_run_steps`,
:meth:`AnalyticalBackend.dynamic_steps`): one call drives it with
``solve_steps``, and a batch drives many in lockstep, solving each
round's memo misses in one vectorized interval solve.
"""

from repro.backend.protocol import (
    BackendCapabilities,
    GroupMeasurement,
    GroupSplit,
    SimBackend,
    SoloMeasurement,
    TenantSet,
    WayUtility,
)
from repro.runtime.harness import paper_pair_allocations
from repro.util.errors import ValidationError

PAPER_THREADS = 4


class AnalyticalBackend(SimBackend):
    """Shared/fair/biased/dynamic over the statistical interval engine.

    ``fg_cost`` is the foreground runtime in seconds; ``bg_rate`` is the
    background's instructions per second while the foreground ran
    (``PairResult.bg_rate_ips``). ``raw`` is the full
    :class:`~repro.sim.engine.PairResult`, energy included.
    """

    def __init__(self, machine=None):
        if machine is None:
            from repro.sim.engine import Machine

            machine = Machine()
        self.machine = machine

    def capabilities(self):
        return BackendCapabilities(
            name="analytical",
            llc_ways=self.machine.config.llc_ways,
            fg_cost_unit="s",
            bg_rate_unit="instr/s",
            supports_dynamic=True,
        )

    def solo(self, app, threads=None):
        """The app alone in the paper's co-run slot, via the solo cache."""
        if threads is None:
            threads = 1 if app.scalability.single_threaded else PAPER_THREADS
        result = self.machine.run_solo_cached(
            app, threads=threads, ways=self.machine.config.llc_ways
        )
        return SoloMeasurement(
            backend="analytical", name=app.name, cost=result.runtime_s,
            raw=result,
        )

    def co_run(self, tenants, split):
        """Co-run under per-tenant way masks.

        A pair on a pair-shaped split runs the paper's Section 5 setup
        (``paper_pair_allocations`` + ``Machine.run_pair``); anything
        else runs through ``Machine.run_group``, the scalar N-tenant
        interval solve.
        """
        return self.machine.solve_steps(self.co_run_steps(tenants, split))

    def co_run_steps(self, tenants, split):
        """:meth:`co_run` as a step generator of this backend's machine
        (``Machine._steps``); returns the measurement."""
        ways = split.pair_ways() if len(tenants.tenants) == 2 else None
        if ways is None:
            allocations = self._group_allocations(tenants, split.mask_bits)
            result = yield from self.machine.group_steps(
                tenants.tenants[0], tenants.tenants[1:],
                allocations[0], allocations[1:],
                **self._group_run_options(tenants),
            )
            return self.group_measurement(tenants, split, result)
        fg, bg = tenants.tenants
        fg_alloc, bg_alloc = paper_pair_allocations(
            fg, bg, *ways, self.machine.config.llc_ways
        )
        pair = yield from self.machine.pair_steps(
            fg, bg, fg_alloc, bg_alloc, **tenants.options
        )
        return pair_measurement((fg.name, bg.name), split, pair)

    def co_run_grid(self, items):
        """:meth:`co_run` of every ``(tenants, split)`` item, the runs
        advanced in lockstep on this backend's machine
        (:func:`~repro.sim.gridsolve.run_pair_grid`): each round's memo
        misses of the pair runs are one vectorized interval solve.
        Results are in item order and equal per-item :meth:`co_run`
        calls bit for bit."""
        from repro.sim.gridsolve import run_pair_grid

        return run_pair_grid(
            (self.machine, self.co_run_steps(tenants, split))
            for tenants, split in items
        )

    def sweep(self, tenants):
        """All disjoint splits of a pair in one vectorized grid call
        (walked through :meth:`co_run` where the grid does not apply)."""
        return self.sweeps([tenants])[0]

    def sweeps(self, tenant_sets):
        """:meth:`sweep` of every pair in ``tenant_sets``, all their
        splits in ONE :meth:`co_run_grid` call: the campaign's sweep
        shards score a whole shard of biased cells this way. The grid
        solves each cell on its own lanes, so every entry equals the
        per-pair sweep's bit for bit."""
        tenant_sets = list(tenant_sets)
        splits = self.disjoint_splits()
        measurements = iter(self.co_run_grid(
            [(tenants, split) for tenants in tenant_sets for split in splits]
        ))
        return [
            [(split.way_counts[0], next(measurements)) for split in splits]
            for _ in tenant_sets
        ]

    def dynamic(self, tenants, controller=None):
        """One dynamic-controller co-run (Algorithm 6.2, 100 ms periods).

        A pair runs as ``Machine.run_pair`` does. Self-pairs are cloned
        under an aliased name by the engine, so the controller is keyed
        on the aliased background name. Larger groups run as
        ``Machine.run_group`` does, the default controller treating
        tenant 0 as the foreground and the rest as peers sharing the
        complement. This is the per-cell reference for
        :meth:`dynamic_roster`.
        """
        return self.machine.solve_steps(self.dynamic_steps(tenants, controller))

    @staticmethod
    def dynamic_roster(cells):
        """:meth:`dynamic` of every ``(backend, tenants)`` cell, each
        under its default controller, the runs advanced in lockstep
        (:func:`~repro.sim.engine.run_lockstep`): each round's memo
        misses of all pair cells are solved in one vectorized interval
        solve. Give each cell its own backend, as the campaign does, so
        each keeps its own machine and memo; the measurements then equal
        per-cell :meth:`dynamic` runs bit for bit. ``cells`` may be an
        iterator, so that finished cells' backends are freed early."""
        from repro.sim.engine import run_lockstep

        return run_lockstep(
            (backend.machine, backend.dynamic_steps(tenants))
            for backend, tenants in cells
        )

    def dynamic_steps(self, tenants, controller=None):
        """:meth:`dynamic` as a step generator of this backend's machine
        (``Machine._steps``); returns the measurement."""
        from repro.core.dynamic import DynamicPartitionController

        llc_ways = self.machine.config.llc_ways
        if len(tenants.tenants) == 2:
            fg, bg = tenants.tenants
            names = (fg.name, bg.name if bg.name != fg.name else f"{bg.name}#2")
        else:
            names = tuple(tenants.names)
        if controller is None:
            controller = DynamicPartitionController(
                fg_name=names[0],
                bg_name=names[1:],
                llc_ways=llc_ways,
                way_mb=self.machine.config.way_mb,
            )
        masks = controller.masks()
        extra = {"controller": controller, "actions": controller.actions}
        if len(names) == 2:
            fg_alloc, bg_alloc = paper_pair_allocations(
                fg, bg, llc_ways=llc_ways
            )
            options = dict(tenants.options)
            options.setdefault("bg_continuous", True)
            pair = yield from self.machine.pair_steps(
                fg,
                bg,
                fg_alloc.with_mask(masks[names[0]]),
                bg_alloc.with_mask(masks[names[1]]),
                controller=controller,
                **options,
            )
            split = GroupSplit.disjoint(controller.fg_ways, llc_ways)
            measurement = pair_measurement(names, split, pair)
            measurement.extra = extra
            return measurement
        split = GroupSplit(
            tuple(masks[name].bits for name in names), llc_ways
        )
        allocations = self._group_allocations(tenants, split.mask_bits)
        result = yield from self.machine.group_steps(
            tenants.tenants[0], tenants.tenants[1:],
            allocations[0], allocations[1:],
            controller=controller, **self._group_run_options(tenants)
        )
        final = controller.masks()
        final_split = GroupSplit(
            tuple(final[name].bits for name in names), llc_ways
        )
        return self.group_measurement(tenants, final_split, result, extra)

    # -- N-tenant groups ----------------------------------------------------

    def _group_allocations(self, group, mask_bits):
        """One :class:`~repro.sim.allocation.Allocation` per tenant.

        Each tenant is pinned to its own physical core (up to the
        machine's core count) with ``1`` thread for single-threaded
        models and ``2`` (both hyperthreads) otherwise, and its fills
        restricted to its mask.
        """
        from repro.cache.llc import WayMask
        from repro.sim.allocation import Allocation

        num_cores = self.machine.config.num_cores
        if len(group.tenants) > num_cores:
            raise ValidationError(
                f"the analytical machine has {num_cores} cores; cannot "
                f"pin {len(group.tenants)} tenants"
            )
        llc_ways = self.machine.config.llc_ways
        allocations = []
        for core, (app, bits) in enumerate(zip(group.tenants, mask_bits)):
            threads = 1 if app.scalability.single_threaded else 2
            allocations.append(Allocation(
                threads=threads,
                cores=(core,),
                mask=WayMask.from_bits(bits, llc_ways),
            ))
        return allocations

    def _group_run_options(self, group):
        allowed = {"step_s", "timeline"}
        unknown = set(group.options) - allowed
        if unknown:
            raise ValidationError(
                f"group runs do not support options {sorted(unknown)}"
            )
        return dict(group.options)

    def group_measurement(self, group, split, result, extra=None):
        """The GroupMeasurement for one finished ``Machine.run_group``."""
        fg_runtime = result.fg.runtime_s
        names = tuple(group.names)
        costs = [result.fg.runtime_s]
        rates = [None]
        for name in names[1:]:
            bg = result.backgrounds[name]
            costs.append(bg.runtime_s)
            rates.append(
                bg.instructions / fg_runtime if fg_runtime else 0.0
            )
        return GroupMeasurement(
            backend="analytical",
            names=names,
            split=split,
            costs=tuple(costs),
            rates=tuple(rates),
            raw=result,
            extra=extra or {},
        )

    def way_utility(self, group):
        """Per-tenant way-utility curves from cached solo runs at each
        allocation (the backend's solo methodology, one run per way
        count)."""
        llc_ways = self.machine.config.llc_ways
        out = {}
        for app, name in zip(group.tenants, group.names):
            threads = 1 if app.scalability.single_threaded else PAPER_THREADS
            hits = []
            for ways in range(1, llc_ways + 1):
                result = self.machine.run_solo_cached(
                    app, threads=threads, ways=ways
                )
                hits.append(
                    max(0.0, result.llc_accesses - result.llc_misses)
                )
            full = self.machine.run_solo_cached(
                app, threads=threads, ways=llc_ways
            )
            out[name] = WayUtility(
                name=name,
                hits_by_ways=tuple(hits),
                accesses=float(full.llc_accesses),
            )
        return out

    # Convenience used by the CLI and tests: a tenant set from names.
    @staticmethod
    def group_spec(names, **options):
        """A TenantSet from application names (or models), aliasing
        duplicates exactly as ``Machine.run_group`` does ("#2", ...)."""
        from repro.workloads import get_application

        apps = [
            get_application(n) if isinstance(n, str) else n for n in names
        ]
        seen, aliased = set(), []
        for app in apps:
            name = app.name
            suffix = 2
            while name in seen:
                name = f"{app.name}#{suffix}"
                suffix += 1
            seen.add(name)
            aliased.append(name)
        return TenantSet(tenants=apps, options=options, names=tuple(aliased))


def pair_measurement(names, split, pair):
    """The GroupMeasurement of one finished ``Machine.run_pair``: the
    foreground's runtime and the background's instruction rate while the
    foreground ran (``PairResult.bg_rate_ips``)."""
    return GroupMeasurement(
        backend="analytical",
        names=tuple(names),
        split=split,
        costs=(pair.fg.runtime_s, None),
        rates=(None, pair.bg_rate_ips),
        raw=pair,
    )


__all__ = ["AnalyticalBackend", "pair_measurement"]
