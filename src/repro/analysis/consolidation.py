"""The representative-pair consolidation study (Sections 5 and 6).

Runs every combination of the six cluster representatives as foreground/
background pairs under each policy, caching aggressively because Figs.
9, 10, 11 and 13 and the headline numbers all slice the same runs.
"""

from repro.backend import AnalyticalBackend
from repro.core.metrics import energy_ratio, slowdown, weighted_speedup
from repro.core.policies import run_policy
from repro.exec import parallel_map
from repro.runtime.harness import paper_pair_allocations
from repro.sim.engine import Machine
from repro.util.errors import ValidationError
from repro.workloads.registry import representatives

PAPER_THREADS = 4
POLICIES = ("shared", "fair", "biased")


class ConsolidationStudy:
    """Caches solo, static-policy, and dynamic runs over app pairs."""

    def __init__(self, machine=None, reps=None):
        self.machine = machine or Machine()
        self.backend = AnalyticalBackend(self.machine)
        self.reps = reps or representatives()  # {"C1": app, ...}
        self._solo_fg = {}
        self._solo_whole = {}
        self._continuous = {}
        self._once = {}
        self._sweeps = {}
        self._dynamic = {}

    # -- pair enumeration --------------------------------------------------

    def cluster_ids(self):
        return sorted(self.reps)

    def ordered_pairs(self):
        """All 36 (fg, bg) combinations of the representatives."""
        ids = self.cluster_ids()
        return [(f, b) for f in ids for b in ids]

    def unordered_pairs(self):
        """The 21 unordered combinations (energy/speedup studies)."""
        ids = self.cluster_ids()
        return [(f, b) for i, f in enumerate(ids) for b in ids[i:]]

    def _apps(self, fg_id, bg_id):
        try:
            return self.reps[fg_id], self.reps[bg_id]
        except KeyError as exc:
            raise ValidationError(f"unknown cluster id {exc}") from None

    # -- bulk warm-up -------------------------------------------------------

    def warm(self, workers=None):
        """Fill every cache the figure drivers will read, possibly on a
        process pool.

        Serial or parallel, the cached values are identical — each pair
        is an independent deterministic simulation — so figures sliced
        from a warmed study match the lazily-computed ones exactly.
        """
        for cluster_id in self.cluster_ids():
            self.solo_fg(cluster_id)
            self.solo_whole(cluster_id)
        once_pairs = set(self.unordered_pairs())
        items = [
            (fg_id, bg_id, (fg_id, bg_id) in once_pairs)
            for fg_id, bg_id in self.ordered_pairs()
        ]
        results = parallel_map(self._warm_pair, items, workers=workers)
        for (fg_id, bg_id, include_once), out in zip(items, results):
            self._sweeps.setdefault((fg_id, bg_id), out["sweep"])
            for policy, outcome in out["continuous"].items():
                self._continuous.setdefault((fg_id, bg_id, policy), outcome)
            self._dynamic.setdefault((fg_id, bg_id, False), out["dynamic"])
            if include_once:
                for policy, pair in out["once"].items():
                    self._once.setdefault((fg_id, bg_id, policy), pair)
        return self

    def _warm_pair(self, item):
        """Everything the figures need for one (fg, bg) pair, computed
        on this study (a pool worker's fork-inherited copy of it); the
        caller merges the returned results into its own caches."""
        fg_id, bg_id, include_once = item
        out = {
            "sweep": self.sweep(fg_id, bg_id),
            "continuous": {p: self.policy(fg_id, bg_id, p) for p in POLICIES},
            "dynamic": self.dynamic(fg_id, bg_id),
        }
        if include_once:
            out["once"] = {p: self.once(fg_id, bg_id, p) for p in POLICIES}
        return out

    # -- baselines --------------------------------------------------------------

    def solo_fg(self, cluster_id):
        """The app alone in the paper's co-run slot (4 threads, 2 cores)."""
        if cluster_id not in self._solo_fg:
            app = self.reps[cluster_id]
            threads = 1 if app.scalability.single_threaded else PAPER_THREADS
            self._solo_fg[cluster_id] = self.machine.run_solo_cached(
                app, threads=threads, ways=self.machine.config.llc_ways
            )
        return self._solo_fg[cluster_id]

    def solo_whole(self, cluster_id):
        """The app alone on the whole machine (the sequential baseline)."""
        if cluster_id not in self._solo_whole:
            app = self.reps[cluster_id]
            threads = 1 if app.scalability.single_threaded else 8
            if app.scalability.pow2_only:
                while threads & (threads - 1):
                    threads -= 1
            self._solo_whole[cluster_id] = self.machine.run_solo_cached(
                app, threads=threads, ways=self.machine.config.llc_ways
            )
        return self._solo_whole[cluster_id]

    # -- policies with a continuously running background -----------------------------

    def _pair(self, fg_id, bg_id, **options):
        return AnalyticalBackend.group_spec(self._apps(fg_id, bg_id), **options)

    def sweep(self, fg_id, bg_id):
        """``[(fg_ways, GroupMeasurement)]`` over every disjoint split."""
        key = (fg_id, bg_id)
        if key not in self._sweeps:
            self._sweeps[key] = self.backend.sweep(self._pair(fg_id, bg_id))
        return self._sweeps[key]

    def policy(self, fg_id, bg_id, policy):
        """PolicyOutcome for shared/fair/biased with continuous background.

        All policies go through the one protocol-level implementation
        (:func:`repro.core.policies.run_policy`) on the study's
        :class:`~repro.backend.analytical.AnalyticalBackend` — the
        biased search reuses the cached static sweep.
        """
        key = (fg_id, bg_id, policy)
        if key not in self._continuous:
            sweep = self.sweep(fg_id, bg_id) if policy == "biased" else None
            self._continuous[key] = run_policy(
                self.backend, self._pair(fg_id, bg_id), policy, sweep=sweep
            )
        return self._continuous[key]

    def fg_slowdown(self, fg_id, bg_id, policy):
        outcome = self.policy(fg_id, bg_id, policy)
        return slowdown(outcome.fg_runtime_s, self.solo_fg(fg_id).runtime_s)

    # -- run-once mode (energy and weighted speedup) ----------------------------------

    def once(self, fg_id, bg_id, policy):
        """PairResult with both apps running exactly once under ``policy``."""
        key = (fg_id, bg_id, policy)
        if key not in self._once:
            fg, bg = self._apps(fg_id, bg_id)
            if policy == "shared":
                fg_ways = bg_ways = self.machine.config.llc_ways
            elif policy == "fair":
                fg_ways = self.machine.config.llc_ways // 2
                bg_ways = self.machine.config.llc_ways - fg_ways
            elif policy == "biased":
                outcome = self.policy(fg_id, bg_id, "biased")
                fg_ways, bg_ways = outcome.fg_ways, outcome.bg_ways
            else:
                raise ValidationError(f"unknown policy {policy!r}")
            fg_alloc, bg_alloc = paper_pair_allocations(
                fg, bg, fg_ways, bg_ways, self.machine.config.llc_ways
            )
            self._once[key] = self.machine.run_pair(
                fg, bg, fg_alloc, bg_alloc, bg_continuous=False
            )
        return self._once[key]

    def energy_ratio(self, fg_id, bg_id, policy, meter="socket"):
        pair = self.once(fg_id, bg_id, policy)
        solos = [self.solo_whole(fg_id), self.solo_whole(bg_id)]
        if meter == "socket":
            return energy_ratio(
                pair.socket_energy_j, [s.socket_energy_j for s in solos]
            )
        return energy_ratio(pair.wall_energy_j, [s.wall_energy_j for s in solos])

    def weighted_speedup(self, fg_id, bg_id, policy):
        """Rate-based weighted speedup (Fig. 11) for one pair."""
        outcome = self.policy(fg_id, bg_id, policy)
        co_rates = [outcome.pair.fg.ips, outcome.pair.bg_rate_ips]
        solo_rates = [
            self.solo_whole(fg_id).ips,
            self.solo_whole(bg_id).ips,
        ]
        return weighted_speedup(co_rates, solo_rates)

    # -- the dynamic controller (Section 6) ----------------------------------------------

    def dynamic(self, fg_id, bg_id, timeline=False):
        """(PairResult, controller) for the dynamic controller run.

        Routed through :meth:`AnalyticalBackend.dynamic` — the backend
        builds the Algorithm 6.2 controller (self-pairs keyed on the
        engine's aliased clone name) and applies its initial masks,
        exactly as this method did before the backend protocol existed.
        """
        key = (fg_id, bg_id, timeline)
        if key not in self._dynamic:
            measurement = self.backend.dynamic(
                self._pair(fg_id, bg_id, timeline=timeline)
            )
            self._dynamic[key] = (
                measurement.raw, measurement.extra["controller"]
            )
        return self._dynamic[key]

    def dynamic_vs_best_static(self, fg_id, bg_id):
        """Fig. 13's quantities for one pair."""
        pair, controller = self.dynamic(fg_id, bg_id)
        best = self.policy(fg_id, bg_id, "biased")
        shared = self.policy(fg_id, bg_id, "shared")
        solo = self.solo_fg(fg_id).runtime_s
        return {
            "fg_slowdown_dynamic": pair.fg.runtime_s / solo,
            "fg_slowdown_best_static": best.fg_runtime_s / solo,
            "bg_throughput_dynamic": pair.bg_rate_ips / best.bg_rate_ips,
            "bg_throughput_shared": shared.bg_rate_ips / best.bg_rate_ips,
            "controller_actions": len(controller.actions),
        }
