"""Vectorized evaluation of the interval fixed point.

:class:`IntervalGrid` solves ``solve_interval`` for many two-app *lanes*
— the running foreground/background pair of one run on one machine — in
one call, with the lane axis vectorized under NumPy. Every stage of the
scalar solve is expressed as array ops over that axis: the occupancy
pressure competition (:mod:`repro.sim.occupancy`), the
rate/bandwidth/latency damped rounds (:mod:`repro.sim.interval`), and
the power breakdown (:mod:`repro.energy.model`). The event loop and the
energy meters are not here: every analytical run ticks through
``Machine._steps``, and :func:`repro.sim.engine.run_lockstep` hands a
round's memo misses to one :meth:`IntervalGrid.solve`.
:func:`run_pair_grid` is that lockstep for a batch of static co-runs.

The contract is the same one every prior speedup in this repo honors:
**bit-identical results**. Each scalar expression is replicated with the
same association order, the same iteration counts and damping constants,
and the same update order; cross-app reductions in the pair case have at
most two terms (commutative under IEEE-754), and the per-core power sum
is replayed as a sequential fold in ascending core order. Three details
deserve a note:

- ``exp`` and ``pow`` are evaluated through ``math.exp`` / ``float.__pow__``
  (libm semantics) rather than NumPy's SIMD kernels, which differ in the
  last ulp on some hosts (:func:`_exp`, :func:`_pow`);
- both occupancy schedules are vectorized — the fixed 40-iteration
  ``tol=0`` replay *and* the ``tol>0`` fast paths (single-writer closed
  form, pinned private regions, warm starts, per-lane early exit, and
  the every-4th-round geometric acceleration) — so grid solutions match
  the scalar solve under any tuning, not just ``occupancy_tol=0``;
- converged lanes are *compacted out* of the working set each round
  (:class:`_View`): fancy-index gathers copy values bit-for-bit and
  every solver op is elementwise along the lane axis, so shrinking the
  arrays changes which lanes are computed, never their bits.
"""

import math

import numpy as np

from repro.cpu.bandwidth import BandwidthDomain
from repro.energy.model import PowerBreakdown
from repro.perf import engine_counters as perf
from repro.sim.engine import run_lockstep
from repro.sim.interval import AppRates, IntervalSolution
from repro.sim.occupancy import _DAMPING, _ITERATIONS
from repro.util.units import GB

# Exponent constants written exactly as the scalar sites spell them.
_CBRT = 1.0 / 3.0


def _exp(values):
    """Elementwise exp with libm semantics.

    ``np.exp`` uses SIMD polynomial kernels whose results differ from
    ``math.exp`` in the last ulp for some inputs; the bit-equality
    contract requires the exact libm value the scalar path computes.
    """
    flat = values.ravel()
    out = np.fromiter(
        map(math.exp, flat.tolist()), dtype=np.float64, count=flat.size
    )
    return out.reshape(values.shape)


def _pow(values, exponent):
    """Elementwise ``v ** exponent`` with CPython float semantics."""
    flat = values.ravel()
    out = np.fromiter(
        (v ** exponent for v in flat.tolist()),
        dtype=np.float64,
        count=flat.size,
    )
    return out.reshape(values.shape)


def _water_fill_single(cap, w, lim):
    """One-writer ``_water_fill``: a single round, pinned at the limit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        prop = np.where(
            w > 0,
            np.minimum(cap * w / w, cap),
            np.minimum(cap / 1, cap),
        )
    share = np.where(prop > lim, lim, prop)
    return np.where(cap > 1e-12, share, 0.0)


def _water_fill_shared(cap, w, lim):
    """Two-writer ``_water_fill`` unrolled: round 1 pins overweight
    writers at their limit, round 2 re-divides the freed capacity for
    the unpinned writer."""
    with np.errstate(divide="ignore", invalid="ignore"):
        tw = w[0] + w[1]
        prop = np.where(
            (tw > 0)[None, :],
            np.minimum(cap[None, :] * w / tw[None, :], cap[None, :]),
            np.minimum(cap[None, :] / 2, cap[None, :]),
        )
        pin = prop > lim
        share = np.where(pin, lim, prop)
        pinned_cap = np.where(pin[0], lim[0], 0.0) + np.where(
            pin[1], lim[1], 0.0
        )
        rc1 = cap - pinned_cap
        for j in (0, 1):
            o = 1 - j
            run2 = ~pin[j] & pin[o]
            if not run2.any():
                continue
            w_j = w[j]
            prop2 = np.where(
                w_j > 0,
                np.minimum(rc1 * w_j / w_j, rc1),
                np.minimum(rc1 / 1, rc1),
            )
            share2 = np.where(prop2 > lim[j], lim[j], prop2)
            share[j] = np.where(
                run2,
                np.where(rc1 > 1e-12, share2, 0.0),
                share[j],
            )
    return np.where((cap > 1e-12)[None, :], share, 0.0)


def _resolve_domain(demands, weights, cap):
    """``BandwidthDomain.resolve`` for two requesters, unrolled.

    Returns (grants ``(2, n)``, latency factor ``(n,)``). The scalar
    stage-2 loop — which competes over *residual* demands after the
    protected-fraction grants — runs at most twice for two requesters;
    both rounds are replayed with the same expressions and epsilon
    gates.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        total = demands[0] + demands[1]
        rho = np.minimum(total / cap, 1.0)
        factor = np.where(total > 0, 1.0 + 0.35 * _pow(rho, 3), 1.0)
        active = demands > 0
        weight_sum = np.where(active[0], weights[0], 0.0) + np.where(
            active[1], weights[1], 0.0
        )
        fair = cap[None, :] * weights / weight_sum[None, :]
        protected = np.where(active, np.minimum(demands, 0.5 * fair), 0.0)
        grants = protected.copy()
        residual = demands - protected
        # remaining_cap -= protected, sequentially in requester order.
        rc = cap - np.where(active[0], protected[0], 0.0)
        rc = rc - np.where(active[1], protected[1], 0.0)
        unsat = active & (residual > 1e-9)

        for _ in range(2):
            go = (unsat[0] | unsat[1]) & (rc > 1e-9)
            if not go.any():
                break
            denom = np.where(
                unsat[0], weights[0] * residual[0], 0.0
            ) + np.where(unsat[1], weights[1] * residual[1], 0.0)
            go = go & (denom > 0)
            share = rc[None, :] * weights * residual / denom[None, :]
            sat = unsat & (share >= residual - 1e-9) & go[None, :]
            any_sat = sat[0] | sat[1]
            # Satisfied requesters take their full residual demand.
            grants = np.where(sat, grants + residual, grants)
            # No one satisfied: grant the proportional share, stop.
            stop = go & ~any_sat
            grants = np.where(stop[None, :] & unsat, grants + share, grants)
            rc = np.where(
                go & any_sat,
                rc
                - (
                    np.where(sat[0], residual[0], 0.0)
                    + np.where(sat[1], residual[1], 0.0)
                ),
                rc,
            )
            unsat = unsat & ~sat & (go & any_sat)[None, :]
    return grants, factor


# What ``_Grid._solve`` returns per app and lane, in its update order.
_SOLVED = (
    "rate", "cpi", "miss_ps", "access_ps", "dram_bytes", "occupancy", "mr",
)


def _popcount(bits):
    return bin(bits).count("1")


# Arrays a solve round reads, all compactable along the lane axis
# (axis 1 for (2, n)/(2, n, K) arrays, axis 0 for (n,) arrays).
_VIEW_BASE = (
    "apki", "sf", "base_cpi", "mlp", "arb_w", "wb1", "dram_eff",
    "pf_static", "pf_pollution", "pf_on", "pf_enabled", "ws", "floor",
    "dmp_add", "cap_priv", "has_priv", "writable", "spread_priv",
    "spread_sh", "line_size", "llc_lat_cyc", "dram_lat_cyc", "ring_cap",
    "dram_cap", "cap_sh", "has_sh", "aa", "sw", "rate0",
)
_VIEW_DERIVED = ("lim_priv", "lim_sh", "pw_c")


class _View:
    """A compacted slice of the grid: only still-active lanes.

    Fancy-index gathers copy values bit-for-bit, and every solver op is
    elementwise along the lane axis, so dropping converged lanes from
    the working set changes which lanes are computed, never their bits.
    This is what keeps heterogeneous grids cheap: a straggler pair that
    needs 25 damped rounds no longer drags the whole grid's arrays
    through all 25.
    """

    __slots__ = _VIEW_BASE + _VIEW_DERIVED + ("n", "K", "tuning")

    def __init__(self, grid, idx):
        self.tuning = grid.tuning
        self.K = grid.K
        self.n = idx.size
        for name in _VIEW_BASE:
            arr = getattr(grid, name)
            setattr(
                self, name, np.take(arr, idx, axis=1 if arr.ndim > 1 else 0)
            )
        # Working-set limits per lane (ws * cap / writable) and the
        # clamped pressure weight are static within a solve.
        with np.errstate(divide="ignore", invalid="ignore"):
            self.lim_priv = np.where(
                self.writable > 0,
                self.ws * self.cap_priv / self.writable,
                np.inf,
            )
            self.lim_sh = np.where(
                self.writable > 0,
                self.ws * self.cap_sh[None, :] / self.writable,
                np.inf,
            )
        self.pw_c = np.maximum(grid.pressure_weight[:, idx], 1e-6)

    def shrink(self, keep):
        view = object.__new__(_View)
        view.tuning = self.tuning
        view.K = self.K
        view.n = keep.size
        for name in _VIEW_BASE + _VIEW_DERIVED:
            arr = getattr(self, name)
            setattr(
                view, name, np.take(arr, keep, axis=1 if arr.ndim > 1 else 0)
            )
        return view

    def miss_ratio(self, capacity, with_ways):
        """``MissRatioCurve.value`` over ``(2, n)`` capacities.

        The component fold runs in component order (pad slots append an
        exact ``mr + 0.0 * exp(...)`` no-op); the ``capacity <= 0``
        guard and the final ``min(mr, 1.0)`` replicate the scalar
        method.
        """
        e = _exp((-capacity)[..., None] / self.sw)
        mr = self.floor.copy()
        for k in range(self.K):
            mr = mr + self.aa[..., k] * e[..., k]
        if with_ways:
            mr = mr + self.dmp_add
        mr = np.minimum(mr, 1.0)
        return np.where(capacity <= 0, 1.0, mr)

    def pressure(self, ar_c, occupancy):
        mr = self.miss_ratio(np.maximum(occupancy, 1e-6), with_ways=False)
        return ar_c * np.maximum(mr, 1e-6) * self.pw_c

    def occupancy_fixed(self, access_rate):
        """``tol=0``: the fixed 40-iteration damped schedule, verbatim."""
        ar_c = np.maximum(access_rate, 0.0)
        # Initial even split: cap / len(writers) per lane.
        p = np.where(self.has_priv, self.cap_priv / 1, 0.0)
        sh = np.where(self.has_sh, self.cap_sh / 2, 0.0)
        sh = np.broadcast_to(sh, (2, self.n)).copy()
        for _ in range(_ITERATIONS):
            occ = p + sh
            pressure = self.pressure(ar_c, occ)
            w_priv = pressure * self.spread_priv
            w_sh = pressure * self.spread_sh
            new_p = _water_fill_single(self.cap_priv, w_priv, self.lim_priv)
            new_sh = _water_fill_shared(self.cap_sh, w_sh, self.lim_sh)
            p = _DAMPING * p + (1 - _DAMPING) * new_p
            sh = _DAMPING * sh + (1 - _DAMPING) * new_sh
        return p + sh

    def occupancy_fast(self, access_rate, warm):
        """``tol>0``: closed-form private lanes + iterated shared lane.

        ``warm`` carries the shared-lane shares across rate rounds (the
        scalar warm start); per-lane early exit and the every-4th-round
        geometric acceleration replicate ``solve_occupancy``.
        """
        tol = self.tuning.occupancy_tol
        ar_c = np.maximum(access_rate, 0.0)
        # _solve_single_writer: min(cap, ws * cap / writable).
        fixed_p = np.where(
            self.has_priv, np.minimum(self.cap_priv, self.lim_priv), 0.0
        )
        if warm is None:
            warm = np.where(self.has_sh, self.cap_sh / 2, 0.0)
            warm = np.broadcast_to(warm, (2, self.n)).copy()
        s = warm
        it_active = self.has_sh.copy()
        prev_delta = np.zeros(self.n)
        iteration = 0
        while it_active.any() and iteration < _ITERATIONS:
            iteration += 1
            occ = fixed_p + s
            pressure = self.pressure(ar_c, occ)
            w_sh = pressure * self.spread_sh
            new_sh = _water_fill_shared(self.cap_sh, w_sh, self.lim_sh)
            stepped = s
            damped = _DAMPING * s + (1 - _DAMPING) * new_sh
            delta = np.maximum(
                np.abs(damped[0] - s[0]), np.abs(damped[1] - s[1])
            )
            s = np.where(it_active[None, :], damped, s)
            still = it_active & (delta > tol)
            if iteration % 4 == 0:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = delta / prev_delta
                    cond = (
                        still
                        & (prev_delta > 0)
                        & (delta < prev_delta)
                        & (ratio < 0.9)
                    )
                    gain = ratio / (1.0 - ratio)
                    accel = s + (s - stepped) * gain[None, :]
                s = np.where(cond[None, :], accel, s)
            # The scalar loop updates prev_delta only when it continues
            # (the convergence break comes first).
            prev_delta = np.where(still, delta, prev_delta)
            it_active = still
        return fixed_p + s, s


class _Grid:
    """All per-lane static state plus the vectorized solve loops.

    Layout: every per-app quantity is a ``(2, C)`` float64 array (axis 0
    is fg/bg, axis 1 the lane axis); per-lane quantities are ``(C,)``.
    The LLC decomposes into at most three non-empty-writer *regions* per
    lane — fg-private, bg-private, and the shared {fg, bg} region — the
    only writer sets two masks can produce. Empty-writer regions hold no
    shares and contribute no occupancy in the scalar solver, so dropping
    them is exact.
    """

    def __init__(self, lanes, tuning):
        """``lanes``: ``[(config, (fg_state, bg_state))]``."""
        self.tuning = tuning
        self.n = len(lanes)
        C = self.n
        configs = [config for config, _ in lanes]
        self.configs = configs
        states = [pair for _, pair in lanes]
        self.apps = [[s[a].app for s in states] for a in range(2)]
        self.allocs = [[s[a].allocation for s in states] for a in range(2)]

        # Per-lane config constants: a row per distinct config.
        distinct = {id(config): config for config in configs}
        row = {key: i for i, key in enumerate(distinct)}
        (
            self.llc_lat_cyc,
            self.dram_lat_cyc,
            self.line_size,
            self.ring_cap,
            self.dram_cap,
            self.uncore_plus_llc,
            self.core_static_w,
            self.core_dyn_w,
            self.dram_static_w,
            self.dram_w_per_gbps,
            self.psu,
            self.rest_w,
        ) = np.array([
            (
                g.llc_latency_cycles, g.dram_latency_cycles, g.line_size,
                g.ring_bandwidth_bps, g.dram_bandwidth_bps,
                g.uncore_static_w + g.llc_static_w, g.core_static_w,
                g.core_dynamic_max_w, g.dram_static_w, g.dram_w_per_gbps,
                g.psu_overhead, g.system_rest_w,
            )
            for g in distinct.values()
        ], dtype=float)[[row[id(config)] for config in configs]].T.copy()
        self.num_cores = np.array(
            [g.num_cores for g in configs], dtype=np.int64
        )
        self.max_cores = int(self.num_cores.max())

        # Per-lane-app scalars, static for the whole run: one row of
        # Python floats per app of each lane, laid out as arrays at once.
        self.speedup = [
            [s[a].app.speedup(s[a].allocation.threads) for s in states]
            for a in range(2)
        ]
        corun_decay = max(0.0, 1.0 - tuning.pf_interference * (2 - 1))
        shape = (2, C)
        rows = []
        for a in range(2):
            for c, (pair, config) in enumerate(zip(states, configs)):
                state = pair[a]
                app = state.app
                threads = state.allocation.threads
                sf = self.speedup[a][c] * config.frequency_hz
                pf_threads = (
                    1 if app.scalability.single_threaded else threads
                )
                thread_decay = 1.0 / (
                    1.0 + tuning.pf_thread_decay * (pf_threads - 1)
                )
                rows.append((
                    app.base_cpi,
                    app.mlp,
                    app.mlp ** 0.5,
                    sf,
                    sf / app.base_cpi,
                    1.0 + app.wb_fraction,
                    app.dram_efficiency,
                    app.cache_pressure,
                    app.pf_pollution,
                    app.pf_coverage * thread_decay * corun_decay,
                    app.mrc.floor,
                    state.prefetchers_on,
                    state.prefetchers_on and app.pf_coverage > 0,
                ))
        (
            self.base_cpi,
            self.mlp,
            self.arb_w,  # arbitration weight, mlp ** 0.5
            self.sf,  # speedup * freq, folded as Python floats
            self.rate0,
            self.wb1,  # 1.0 + wb_fraction
            self.dram_eff,
            self.pressure_weight,
            self.pf_pollution,
            self.pf_static,  # (coverage * thread_decay) * corun_decay
            self.floor,
            pf_enabled,
            pf_on,
        ) = np.array(rows, dtype=float).reshape(2, C, -1).transpose(2, 0, 1).copy()
        self.pf_enabled = pf_enabled.astype(bool)
        self.pf_on = pf_on.astype(bool)
        self.dmp_add = np.zeros(shape)  # direct-mapped penalty or 0.0
        comp_counts = [
            len(app.mrc.components) for apps in self.apps for app in apps
        ]

        # Miss-ratio components, padded with (aa=0, sw=1): the fold adds
        # an exact ``mr + 0.0 * exp(...)`` no-op per pad slot.
        self.K = max(comp_counts)
        self.aa = np.zeros((2, C, self.K))
        self.sw = np.ones((2, C, self.K))
        self.apki = np.zeros(shape)
        self.ws = np.zeros(shape)
        self._phase_idx = [[-1] * C, [-1] * C]
        self._phase_memo = {}

        # LLC regions: private fg / private bg / shared, per lane.
        self.cap_priv = np.zeros(shape)
        self.cap_sh = np.zeros(C)
        self._set_masks(list(range(C)))

        # Power slots: (app, slot) -> per-lane core index and the static
        # utilization multiplier 0.65 + 0.35 * (threads_here / 2). The
        # scalar fold sums over {0..num_cores-1} union allocation cores,
        # so track assigned cores too.
        self.power_slots = []
        max_slots = max(
            (len(self.allocs[a][c].cores) for a in range(2) for c in range(C)),
            default=0,
        )
        max_core_idx = max(
            (
                max(self.allocs[a][c].cores)
                for a in range(2)
                for c in range(C)
                if self.allocs[a][c].cores
            ),
            default=-1,
        )
        self.max_cores = max(self.max_cores, max_core_idx + 1)
        self.core_assigned = np.zeros((C, self.max_cores), dtype=bool)
        for a in range(2):
            for i in range(max_slots):
                core_idx, mult, present = [0] * C, [0.0] * C, [False] * C
                for c in range(C):
                    cores = self.allocs[a][c].cores
                    if i >= len(cores):
                        continue
                    threads = self.allocs[a][c].threads
                    threads_here = (
                        2 if (i + 1) * 2 <= threads else max(1, threads - 2 * i)
                    )
                    core_idx[c] = cores[i]
                    mult[c] = 0.65 + 0.35 * (threads_here / 2)
                    present[c] = True
                    self.core_assigned[c, cores[i]] = True
                if any(present):
                    self.power_slots.append((
                        a,
                        np.array(core_idx, dtype=np.int64),
                        np.array(mult),
                        np.array(present),
                    ))

    # -- mask-dependent inputs --------------------------------------------

    def _set_masks(self, lanes):
        """The region capacities and direct-mapped penalties of
        ``lanes`` from their allocations' current masks, and what
        follows from the capacities."""
        dmp, priv, shared = [], [], []
        for c in lanes:
            masks = self.allocs[0][c].mask, self.allocs[1][c].mask
            dmp.append([
                app[c].mrc.direct_mapped_penalty if mask.count == 1 else 0.0
                for app, mask in zip(self.apps, masks)
            ])
            fg, bg = (mask.bits for mask in masks)
            full = (1 << self.configs[c].llc_ways) - 1
            way_mb = self.configs[c].way_bytes / (1 << 20)
            priv.append([
                _popcount(fg & ~bg & full) * way_mb,
                _popcount(bg & ~fg & full) * way_mb,
            ])
            shared.append(_popcount(fg & bg & full) * way_mb)
        self.dmp_add[:, lanes] = np.array(dmp).T
        self.cap_priv[:, lanes] = np.array(priv).T
        self.cap_sh[lanes] = shared
        self.has_priv = self.cap_priv > 0
        self.has_sh = self.cap_sh > 0
        # writable = sum of region capacities the app can write (<=2 terms).
        self.writable = self.cap_priv + self.cap_sh
        # Pressure spread factors hold for a solve: cap / writable.
        with np.errstate(divide="ignore", invalid="ignore"):
            self.spread_priv = np.where(
                self.writable > 0, self.cap_priv / self.writable, 0.0
            )
            self.spread_sh = np.where(
                self.writable > 0, self.cap_sh[None, :] / self.writable, 0.0
            )

    # -- phase-dependent inputs -------------------------------------------

    def _set_phases(self, c, progresses):
        """Lane ``c``'s apki / working set / curve params at its apps'
        ``progresses``, regathered where a phase moved."""
        for a, progress in enumerate(progresses):
            app = self.apps[a][c]
            idx = app.phase_index_at(progress)
            if idx == self._phase_idx[a][c]:
                continue
            self._phase_idx[a][c] = idx
            threads = self.allocs[a][c].threads
            key = (id(app), idx, threads)
            params = self._phase_memo.get(key)
            if params is None:
                phase = app.phases[idx]
                aa = [amp * phase.amp_mult for amp, _ in app.mrc.components]
                sw = [scale * phase.ws_mult for _, scale in app.mrc.components]
                params = (
                    app.apki(phase, threads),
                    app.working_set_mb(phase),
                    aa,
                    sw,
                )
                self._phase_memo[key] = params
            apki, ws, aa, sw = params
            self.apki[a, c] = apki
            self.ws[a, c] = ws
            self.aa[a, c, : len(aa)] = aa
            self.aa[a, c, len(aa):] = 0.0
            self.sw[a, c, : len(sw)] = sw
            self.sw[a, c, len(sw):] = 1.0

    # -- the interval fixed point -----------------------------------------

    def _solve(self, step_active):
        """``solve_interval`` over the lane axis.

        Returns full-width ``(2, C)`` arrays holding each active lane's
        final per-app solution (rate, cpi, miss/access rates, DRAM
        traffic, occupancy and miss ratio). Internally the working set
        holds only unconverged lanes, shrinking as lanes' damped rounds
        settle.
        """
        t = self.tuning
        C = self.n
        out = {name: np.zeros((2, C)) for name in _SOLVED}
        sel = np.nonzero(step_active)[0]
        if sel.size == 0:
            return out
        v = _View(self, sel)
        rates = v.rate0.copy()
        ring_f = np.ones(sel.size)
        dram_f = np.ones(sel.size)
        throttles = np.ones((2, sel.size))
        warm = None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(t.max_rounds):
                access_rate = rates * v.apki / 1000.0
                if t.occupancy_tol > 0:
                    occupancy, warm = v.occupancy_fast(access_rate, warm)
                else:
                    occupancy = v.occupancy_fixed(access_rate)

                mr = v.miss_ratio(occupancy, with_ways=True)
                # _effective_pf with the previous round's dram factor.
                rho = _pow(
                    np.minimum(1.0, np.maximum(0.0, (dram_f - 1.0) / 0.35)),
                    _CBRT,
                )[None, :]
                timeliness = 1.0 - t.pf_timeliness_loss * _pow(rho, 2)
                pf_eff = np.where(v.pf_on, v.pf_static * timeliness, 0.0)
                mr = np.where(
                    v.pf_enabled,
                    np.minimum(1.0, mr + v.pf_pollution),
                    mr,
                )
                llc_lat = v.llc_lat_cyc[None, :] * ring_f[None, :]
                mem_lat = (
                    v.llc_lat_cyc[None, :] * ring_f[None, :]
                    + v.dram_lat_cyc[None, :] * dram_f[None, :]
                ) * (1.0 - t.pf_hide * pf_eff)
                stall_cpi = (
                    (v.apki / 1000.0)
                    * ((1.0 - mr) * llc_lat + mr * mem_lat)
                    / v.mlp
                )
                cpi = v.base_cpi + stall_cpi
                rate = v.sf / cpi * throttles
                access_ps = rate * v.apki / 1000.0
                miss_ps = access_ps * mr
                pf_traffic_mult = 1.0 + t.pf_traffic * pf_eff
                llc_bytes = access_ps * v.line_size[None, :]
                dram_bytes = (
                    miss_ps * v.line_size[None, :] * v.wb1 * pf_traffic_mult
                )
                dram_demand = dram_bytes / v.dram_eff

                ring_grants, new_ring_f = _resolve_domain(
                    llc_bytes, v.arb_w, v.ring_cap
                )
                dram_grants, new_dram_f = _resolve_domain(
                    dram_demand, v.arb_w, v.dram_cap
                )

                scale = np.where(
                    llc_bytes > 0,
                    np.minimum(1.0, ring_grants / llc_bytes),
                    1.0,
                )
                scale = np.where(
                    dram_demand > 0,
                    np.minimum(scale, dram_grants / dram_demand),
                    scale,
                )
                target = throttles * scale
                new_throttle = t.damping * throttles + (
                    1 - t.damping
                ) * np.minimum(1.0, target)
                thr_moved = np.abs(new_throttle - throttles) > t.tolerance
                rate_moved = (rates > 0) & (
                    np.abs(rate - rates) / rates > t.tolerance
                )
                converged = ~(
                    thr_moved[0]
                    | thr_moved[1]
                    | rate_moved[0]
                    | rate_moved[1]
                )

                throttles = np.maximum(1e-3, new_throttle)
                rates = rate
                ring_f = new_ring_f
                dram_f = new_dram_f
                for name, new in zip(_SOLVED, (
                    rate, cpi, miss_ps, access_ps, dram_bytes, occupancy, mr,
                )):
                    out[name][:, sel] = new

                keep = np.nonzero(~converged)[0]
                if keep.size == 0:
                    break
                if keep.size < sel.size:
                    sel = sel[keep]
                    v = v.shrink(keep)
                    rates = rates[:, keep]
                    throttles = throttles[:, keep]
                    ring_f = ring_f[keep]
                    dram_f = dram_f[keep]
                    if warm is not None:
                        warm = warm[:, keep]
        return out

    def _power(self, out):
        """``PowerModel.breakdown``: a sequential fold in core order."""
        C = self.n
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.minimum(1.0, self.base_cpi / out["cpi"])
        core_utils = np.zeros((C, self.max_cores))
        lane_idx = np.arange(C)
        for a, core_idx, mult, present in self.power_slots:
            vals = np.minimum(1.0, util[a] * mult)
            sel = np.nonzero(present)[0]
            core_utils[lane_idx[sel], core_idx[sel]] = vals[sel]
        cores_w = np.zeros(C)
        for core in range(self.max_cores):
            in_fold = (core < self.num_cores) | self.core_assigned[:, core]
            term = self.core_static_w + self.core_dyn_w * core_utils[:, core]
            cores_w = np.where(in_fold, cores_w + term, cores_w)
        socket_w = self.uncore_plus_llc + cores_w
        total_dram = out["dram_bytes"][0] + out["dram_bytes"][1]
        dram_w = self.dram_static_w + self.dram_w_per_gbps * (total_dram / GB)
        wall_w = self.psu * (socket_w + dram_w) + self.rest_w
        return socket_w, cores_w, dram_w, wall_w


def _fixed(fg, bg):
    """What a lane holds fixed of its two states."""
    return (
        fg.allocation.threads, fg.allocation.cores, fg.prefetchers_on,
        bg.allocation.threads, bg.allocation.cores, bg.prefetchers_on,
    )


class IntervalGrid:
    """``solve_interval`` of many two-app lanes in one vectorized solve.

    A lane is the pair of running
    :class:`~repro.sim.interval.AppState` (foreground first) of one run
    on one machine. Its apps, threads, cores, prefetch setting, config
    and memory system are fixed when the grid is built; what a run
    changes between intervals — progress, and so phases, and way masks
    — is read again at every :meth:`solve`. The fixed point is
    ``_Grid._solve`` over the lanes asked for, and each returned
    :class:`~repro.sim.interval.IntervalSolution` is bit for bit what
    ``solve_interval`` gives for the lane's states on its machine.
    """

    def __init__(self, lanes, tuning):
        """``lanes``: ``[(machine, (fg_state, bg_state))]``, each one
        that :meth:`accepts` takes."""
        self.tuning = tuning
        self._lanes = [
            (
                fg, bg, machine.config, machine.memory_system.ring,
                machine.memory_system.dram, _fixed(fg, bg),
            )
            for machine, (fg, bg) in lanes
        ]
        self._grid = _Grid(
            [(machine.config, states) for machine, states in lanes], tuning
        )
        # What each lane's solutions repeat: app names, speedups, and the
        # LLC's static power.
        self._constants = [
            ((fg.name, bg.name), speedups, config.llc_static_w)
            for (fg, bg, config, *_), speedups in zip(
                self._lanes, zip(*self._grid.speedup)
            )
        ]

    @staticmethod
    def accepts(machine, states, tuning):
        """Whether a lane can be built from ``states`` on ``machine``.

        The grid derives the ring and DRAM domains from the config, so
        the machine's domains must be the plain ones built from that
        config — not, say, the QoS domain
        :func:`repro.core.bandwidth_qos.apply_qos` installs.
        """
        memory, config = machine.memory_system, machine.config
        return (
            len(states) == 2
            and states[0].prefetchers_on == states[1].prefetchers_on
            and machine.tuning is tuning
            and machine.power_model.config is config
            and all(
                type(domain) is BandwidthDomain
                and domain.capacity_bps == capacity
                for domain, capacity in (
                    (memory.ring, config.ring_bandwidth_bps),
                    (memory.dram, config.dram_bandwidth_bps),
                )
            )
        )

    def covers(self, lane, machine, states):
        """Whether ``states`` on ``machine`` are still what ``lane`` was
        built from (the same states, threads, cores, prefetch setting,
        config, tuning, power model and memory domains)."""
        fg, bg, config, ring, dram, fixed = self._lanes[lane]
        memory = machine.memory_system
        return (
            len(states) == 2
            and states[0] is fg
            and states[1] is bg
            and machine.config is config
            and machine.power_model.config is config
            and machine.tuning is self.tuning
            and memory.ring is ring
            and memory.dram is dram
            and fixed == _fixed(fg, bg)
        )

    def solve(self, lanes):
        """``[IntervalSolution]`` for ``lanes``, in order: each lane's
        states as they stand now, all in one solve."""
        grid = self._grid
        moved = []
        for lane in lanes:
            fg, bg = self._lanes[lane][:2]
            if (
                grid.allocs[0][lane].mask.bits != fg.allocation.mask.bits
                or grid.allocs[1][lane].mask.bits != bg.allocation.mask.bits
            ):
                grid.allocs[0][lane] = fg.allocation
                grid.allocs[1][lane] = bg.allocation
                moved.append(lane)
            grid._set_phases(lane, (fg.progress, bg.progress))
        if moved:
            grid._set_masks(moved)
        step = np.zeros(grid.n, dtype=bool)
        step[lanes] = True
        out = grid._solve(step)
        # The rest of ``solve_interval``'s last round, as it computes it:
        # traffic per app, and each domain's utilization of its sum.
        llc_bytes = out["access_ps"] * grid.line_size
        dram_demand = out["dram_bytes"] / grid.dram_eff
        utilization = (
            np.minimum((dram_demand[0] + dram_demand[1]) / grid.dram_cap, 1.0),
            np.minimum((llc_bytes[0] + llc_bytes[1]) / grid.ring_cap, 1.0),
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            # ``min(1.0, base_cpi / cpi)``: fmin, as ``min``, keeps 1.0
            # against a NaN.
            core_util = np.fmin(1.0, grid.base_cpi / out["cpi"])
        # Python floats per lane, as ``solve_interval`` holds them: per
        # app in AppRates field order, then the lane's utilizations and
        # power.
        per_app = np.stack((
            out["rate"], out["cpi"], grid.apki, grid.apki * out["mr"],
            out["miss_ps"], out["access_ps"], out["occupancy"],
            out["dram_bytes"], llc_bytes, core_util,
        ))[:, :, lanes].transpose(2, 1, 0).tolist()
        per_lane = np.stack(
            (*utilization, *grid._power(out))
        )[:, lanes].T.tolist()
        solutions = []
        for lane, apps, values in zip(lanes, per_app, per_lane):
            names, speedups, llc_w = self._constants[lane]
            dram_util, ring_util, socket_w, cores_w, dram_w, wall_w = values
            solutions.append(IntervalSolution(
                {
                    name: AppRates(name, *rates, speedup)
                    for name, rates, speedup in zip(names, apps, speedups)
                },
                dram_util,
                ring_util,
                PowerBreakdown(socket_w, cores_w, llc_w, dram_w, wall_w),
            ))
        return solutions


def run_pair_grid(runs):
    """Drive a batch of static co-runs in lockstep; returns their results.

    ``runs`` are ``(machine, steps)`` pairs, as
    :func:`~repro.sim.engine.run_lockstep` takes them: each round's memo
    misses of the pair lanes are one :meth:`IntervalGrid.solve`, so each
    result equals its own ``Machine.solve_steps`` run bit for bit.
    Counts one grid call per batch and one grid cell per run.
    """
    runs = list(runs)
    if runs:
        perf.add(perf.GRID_CALLS)
        perf.add(perf.GRID_CELLS, len(runs))
    return run_lockstep(runs)


__all__ = ["IntervalGrid", "run_pair_grid"]
