"""Joint (operating point x way allocation) search under QoS slack.

The ROADMAP's "coordinated energy x partitioning optimization" item
(after Nejat et al., PAPERS.md): the paper shows cache partitioning
preserves responsiveness while co-location improves utilization; the
coordinated question is which *combination* of core operating point and
LLC split spends the least energy while still meeting a per-tenant
responsiveness contract. That search needs a co-run measurement per
(config, split) cell — |configs| x (ways - 1) interval solves per pair —
which is exactly the shape :meth:`SimBackend.co_run_grid` batches into
one vectorized call on the analytical backend.

:class:`EnergyQosSearch` implements the policy against the backend
protocol: QoS anchors come from the *nominal* operating point (the
backend's own config) — the foreground budget is its solo cost plus a
slack fraction, the optional background floor a fraction of its
bg_rate under the nominal shared baseline — and the search returns the
minimum-energy feasible cell with a deterministic tie-break. Cells are
memoized per (pair, config, split), so re-searching with a different
slack re-solves nothing.
"""

from dataclasses import dataclass

from repro.backend.protocol import GroupSplit
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class EnergyQosPick:
    """The chosen cell of one joint search.

    ``feasible`` says whether any cell met the QoS contract; when none
    did, the pick is the most responsive cell (minimum ``fg_cost``)
    rather than the cheapest, so an infeasible contract degrades toward
    responsiveness, never away from it.
    """

    config_index: int
    config: object
    fg_ways: int
    bg_ways: int
    fg_cost: float
    bg_rate: float
    energy_j: float
    feasible: bool
    fg_budget: float
    bg_floor: float = None
    cells_searched: int = 0


class EnergyQosSearch:
    """Minimum-energy (operating point x way split) under QoS slack.

    ``configs`` lists the candidate operating points (``None`` entries
    mean the backend's nominal config). ``fg_slack`` is the fraction by
    which the foreground's cost may exceed its nominal solo cost;
    ``bg_slack`` (optional) is the fraction by which the background's
    rate may fall below its nominal shared-baseline rate. The backend
    must report energy (``supports_energy``); more than one distinct
    operating point additionally needs ``supports_operating_points``.
    """

    def __init__(self, backend=None, configs=(None,), fg_slack=0.1,
                 bg_slack=None):
        if backend is None:
            from repro.backend import AnalyticalBackend

            backend = AnalyticalBackend()
        caps = backend.capabilities()
        if not caps.supports_energy:
            raise ValidationError(
                f"backend {caps.name!r} reports no energy; the energy-QoS "
                "search needs supports_energy"
            )
        configs = tuple(configs) or (None,)
        if (
            any(config is not None for config in configs)
            and not caps.supports_operating_points
        ):
            raise ValidationError(
                f"backend {caps.name!r} cannot vary operating points; pass "
                "configs=(None,) to search way splits only"
            )
        if fg_slack < 0:
            raise ValidationError("fg_slack must be >= 0")
        if bg_slack is not None and not 0 <= bg_slack <= 1:
            raise ValidationError("bg_slack must be in [0, 1]")
        self.backend = backend
        self.configs = configs
        self.fg_slack = fg_slack
        self.bg_slack = bg_slack
        self._memo = {}  # (fg, bg, config_index, fg_ways) -> measurement

    def _measurements(self, tenants):
        """All (config_index, fg_ways) -> GroupMeasurement, memoized.

        Missing cells are solved in ONE ``co_run_grid`` call — on the
        analytical backend that is a single vectorized grid solve over
        the whole (config x split) plane.
        """
        llc_ways = self.backend.capabilities().llc_ways
        wanted = [
            (ci, fg_ways)
            for ci in range(len(self.configs))
            for fg_ways in range(1, llc_ways)
        ]
        names = tuple(tenants.names)
        missing = [key for key in wanted if names + key not in self._memo]
        if missing:
            items = [
                (
                    tenants,
                    GroupSplit.disjoint(fg_ways, llc_ways),
                    self.configs[ci],
                )
                for ci, fg_ways in missing
            ]
            for key, m in zip(missing, self.backend.co_run_grid(items)):
                self._memo[names + key] = m
        return {key: self._memo[names + key] for key in wanted}

    def search(self, fg, bg, **options):
        """The minimum-energy feasible cell for one pair.

        Feasibility: ``fg_cost <= solo_cost * (1 + fg_slack)`` and,
        when ``bg_slack`` is set, ``bg_rate >= shared_rate * (1 -
        bg_slack)``, both anchored at the nominal operating point. Ties
        break on (energy, config order, fg_ways) so the pick is a
        deterministic function of the measurement grid.
        """
        from repro.backend import AnalyticalBackend

        tenants = AnalyticalBackend.group_spec([fg, bg], **options)
        llc_ways = self.backend.capabilities().llc_ways
        fg_budget = (
            self.backend.solo(tenants.primary).cost * (1.0 + self.fg_slack)
        )
        bg_floor = None
        if self.bg_slack is not None:
            baseline = self.backend.co_run(
                tenants, GroupSplit.shared(2, llc_ways)
            )
            bg_floor = baseline.bg_rate * (1.0 - self.bg_slack)

        cells = self._measurements(tenants)
        best = None
        fallback = None
        for (ci, fg_ways), m in sorted(cells.items()):
            energy = m.raw.socket_energy_j
            feasible = m.fg_cost <= fg_budget and (
                bg_floor is None or m.bg_rate >= bg_floor
            )
            entry = (ci, fg_ways, m, energy)
            if feasible and (best is None or energy < best[3]):
                best = entry
            if fallback is None or m.fg_cost < fallback[2].fg_cost:
                fallback = entry
        ci, fg_ways, m, energy = best if best is not None else fallback
        return EnergyQosPick(
            config_index=ci,
            config=self.configs[ci],
            fg_ways=fg_ways,
            bg_ways=llc_ways - fg_ways,
            fg_cost=m.fg_cost,
            bg_rate=m.bg_rate,
            energy_j=energy,
            feasible=best is not None,
            fg_budget=fg_budget,
            bg_floor=bg_floor,
            cells_searched=len(cells),
        )


__all__ = ["EnergyQosPick", "EnergyQosSearch"]
