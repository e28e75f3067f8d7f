"""Vectorized batch evaluation of the interval fixed point.

``run_pair_grid`` solves a whole grid of foreground/background cells —
(fg app x bg app x way split x operating point) — in one call, with the
cell axis vectorized under NumPy. Every stage of the scalar pipeline is
expressed as array ops over that axis: the occupancy pressure
competition (:mod:`repro.sim.occupancy`), the rate/bandwidth/latency
damped rounds (:mod:`repro.sim.interval`), the event loop and energy
meters (:mod:`repro.sim.engine`), and the power breakdown
(:mod:`repro.energy.model`).

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
  form, pinned private regions, warm starts, per-cell early exit, and
  the every-4th-round geometric acceleration) — so grid results match
  the scalar engine under any tuning, not just ``occupancy_tol=0``;
- converged cells are *compacted out* of the working set each round
  (:class:`_View`): fancy-index gathers copy values bit-for-bit and
  every solver op is elementwise along the cell axis, so shrinking the
  arrays changes which lanes are computed, never their bits.

Cells that would individually raise (runaway guard, no runnable app)
raise for the whole grid, mirroring a sequential loop that stops at the
first failing cell.
"""

import dataclasses
import math

import numpy as np

from repro.energy.rapl import RAPL_ENERGY_UNIT_J
from repro.perf import engine_counters as perf
from repro.sim.engine import _EPS, _MAX_SIM_SECONDS, PairResult, RunResult
from repro.sim.occupancy import _DAMPING, _ITERATIONS
from repro.sim.tuning import DEFAULT_TUNING
from repro.util.errors import SchedulingError, ValidationError
from repro.util.units import GB

# Exponent constants written exactly as the scalar sites spell them.
_CBRT = 1.0 / 3.0
_RAPL_WRAP = 1 << 32


@dataclasses.dataclass(frozen=True)
class GridCell:
    """One (pair, allocation, operating point) cell of a batch.

    ``config`` overrides the grid-level platform config for this cell
    (an operating point: a different frequency, latency set, or power
    envelope); ``None`` means the shared default.
    """

    fg: object  # ApplicationModel
    bg: object  # ApplicationModel
    fg_allocation: object  # Allocation
    bg_allocation: object  # Allocation
    config: object = None  # SandyBridgeConfig | None
    prefetchers_on: bool = True


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


def _alias_pair(fg, bg):
    """The engine's self-pair aliasing, verbatim."""
    if fg.name == bg.name:
        bg = dataclasses.replace(bg, name=f"{bg.name}#2", phases=bg.phases)
    return fg, bg


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


# What ``_Grid._solve`` returns per app and cell, in its update order.
_SOLVED = (
    "rate", "cpi", "miss_ps", "access_ps", "dram_bytes", "occupancy", "mr",
)


def _popcount(bits):
    return bin(bits).count("1")


# Arrays a solve round reads, all compactable along the cell axis
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
    """A compacted slice of the grid: only still-active cells.

    Fancy-index gathers copy values bit-for-bit, and every solver op is
    elementwise along the cell axis, so dropping converged cells from
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
        scalar warm start); per-cell early exit and the every-4th-round
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
    """All per-cell static state plus the vectorized solve loops.

    Layout: every per-app quantity is a ``(2, C)`` float64 array (axis 0
    is fg/bg, axis 1 the cell axis); per-cell quantities are ``(C,)``.
    The LLC decomposes into at most three non-empty-writer *lanes* per
    cell — fg-private, bg-private, and the shared {fg, bg} region — the
    only writer sets two contiguous masks can produce. Empty-writer
    regions hold no shares and contribute no occupancy in the scalar
    solver, so dropping them is exact.
    """

    def __init__(self, cells, tuning, default_config):
        self.tuning = tuning
        self.n = len(cells)
        C = self.n
        self.apps = [[None] * C, [None] * C]
        self.allocs = [[None] * C, [None] * C]
        configs = []
        for c, cell in enumerate(cells):
            fg, bg = _alias_pair(cell.fg, cell.bg)
            if cell.fg_allocation.overlaps_cores(cell.bg_allocation):
                raise SchedulingError(
                    "co-scheduled applications must use disjoint cores"
                )
            self.apps[0][c], self.apps[1][c] = fg, bg
            self.allocs[0][c] = cell.fg_allocation
            self.allocs[1][c] = cell.bg_allocation
            configs.append(cell.config or default_config)
        self.configs = configs

        def per_cell(fn):
            return np.array([fn(cfg) for cfg in configs], dtype=np.float64)

        self.freq = per_cell(lambda g: g.frequency_hz)
        self.llc_lat_cyc = per_cell(lambda g: g.llc_latency_cycles)
        self.dram_lat_cyc = per_cell(lambda g: g.dram_latency_cycles)
        self.line_size = per_cell(lambda g: g.line_size)
        self.ring_cap = per_cell(lambda g: g.ring_bandwidth_bps)
        self.dram_cap = per_cell(lambda g: g.dram_bandwidth_bps)
        self.way_mb = per_cell(lambda g: g.way_bytes / (1 << 20))
        self.uncore_plus_llc = per_cell(
            lambda g: g.uncore_static_w + g.llc_static_w
        )
        self.llc_static_w = per_cell(lambda g: g.llc_static_w)
        self.core_static_w = per_cell(lambda g: g.core_static_w)
        self.core_dyn_w = per_cell(lambda g: g.core_dynamic_max_w)
        self.dram_static_w = per_cell(lambda g: g.dram_static_w)
        self.dram_w_per_gbps = per_cell(lambda g: g.dram_w_per_gbps)
        self.psu = per_cell(lambda g: g.psu_overhead)
        self.rest_w = per_cell(lambda g: g.system_rest_w)
        self.dram_epm = per_cell(lambda g: g.dram_energy_per_miss_j)
        self.num_cores = np.array(
            [g.num_cores for g in configs], dtype=np.int64
        )
        self.max_cores = int(self.num_cores.max()) if C else 0

        # Per-cell-app scalars (all static for the whole run).
        shape = (2, C)
        self.base_cpi = np.zeros(shape)
        self.mlp = np.zeros(shape)
        self.arb_w = np.zeros(shape)
        self.sf = np.zeros(shape)  # speedup * freq, folded as Python floats
        self.rate0 = np.zeros(shape)
        self.instructions = np.zeros(shape)
        self.wb1 = np.zeros(shape)  # 1.0 + wb_fraction
        self.dram_eff = np.zeros(shape)
        self.pressure_weight = np.zeros(shape)
        self.pf_pollution = np.zeros(shape)
        self.pf_static = np.zeros(shape)  # (coverage*thread_decay)*corun
        self.pf_on = np.zeros(shape, dtype=bool)
        self.pf_enabled = np.zeros(shape, dtype=bool)
        self.floor = np.zeros(shape)
        self.dmp_add = np.zeros(shape)  # direct-mapped penalty or 0.0
        self.skip_event = np.zeros(shape, dtype=bool)
        phase_counts = []
        comp_counts = []
        for a in range(2):
            for c in range(C):
                app = self.apps[a][c]
                alloc = self.allocs[a][c]
                cfg = configs[c]
                threads = alloc.threads
                speedup = app.speedup(threads)
                freq = cfg.frequency_hz
                self.base_cpi[a, c] = app.base_cpi
                self.mlp[a, c] = app.mlp
                self.arb_w[a, c] = app.mlp ** 0.5
                self.sf[a, c] = speedup * freq
                self.rate0[a, c] = speedup * freq / app.base_cpi
                self.instructions[a, c] = app.instructions
                self.wb1[a, c] = 1.0 + app.wb_fraction
                self.dram_eff[a, c] = app.dram_efficiency
                self.pressure_weight[a, c] = app.cache_pressure
                self.pf_pollution[a, c] = app.pf_pollution
                cell = cells[c]
                self.pf_enabled[a, c] = cell.prefetchers_on
                self.pf_on[a, c] = (
                    cell.prefetchers_on and app.pf_coverage > 0
                )
                pf_threads = (
                    1 if app.scalability.single_threaded else threads
                )
                thread_decay = 1.0 / (
                    1.0 + tuning.pf_thread_decay * (pf_threads - 1)
                )
                corun_decay = max(
                    0.0, 1.0 - tuning.pf_interference * (2 - 1)
                )
                self.pf_static[a, c] = (
                    app.pf_coverage * thread_decay * corun_decay
                )
                self.floor[a, c] = app.mrc.floor
                # A single-phase continuous background contributes no
                # events (only the background runs continuously here).
                self.skip_event[a, c] = a == 1 and not app.has_phases()
                phase_counts.append(len(app.phases))
                comp_counts.append(len(app.mrc.components))

        # Phase boundaries, +inf padded so min-over-axis skips the pad.
        B = max(phase_counts) if phase_counts else 1
        self.bnd = np.full((2, C, B), np.inf)
        for a in range(2):
            for c in range(C):
                bounds = self.apps[a][c].phase_boundaries()
                self.bnd[a, c, : len(bounds)] = bounds

        # Miss-ratio components, padded with (aa=0, sw=1): the fold adds
        # an exact ``mr + 0.0 * exp(...)`` no-op per pad slot.
        self.K = max(comp_counts) if comp_counts else 1
        self.aa = np.zeros((2, C, self.K))
        self.sw = np.ones((2, C, self.K))
        self.apki = np.zeros(shape)
        self.ws = np.zeros(shape)
        self._phase_idx = np.full(shape, -1, dtype=np.int64)
        self._phase_memo = {}

        # LLC lanes: private fg / private bg / shared, per cell.
        self.cap_priv = np.zeros(shape)
        self.cap_sh = np.zeros(C)
        for c in range(C):
            self._set_masks(c)
        self._derive_lanes()

        # Power slots: (app, slot) -> per-cell core index and the static
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
                core_idx = np.zeros(C, dtype=np.int64)
                mult = np.zeros(C)
                present = np.zeros(C, dtype=bool)
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
                if present.any():
                    self.power_slots.append((a, core_idx, mult, present))

    # -- mask-dependent inputs --------------------------------------------

    def _set_masks(self, c):
        """Cell ``c``'s lane capacities and direct-mapped penalties from
        its allocations' current masks; :meth:`_derive_lanes` then
        refreshes what follows from the capacities."""
        fg_bits = self.allocs[0][c].mask.bits
        bg_bits = self.allocs[1][c].mask.bits
        for a in (0, 1):
            self.dmp_add[a, c] = (
                self.apps[a][c].mrc.direct_mapped_penalty
                if self.allocs[a][c].mask.count == 1
                else 0.0
            )
        full = (1 << self.configs[c].llc_ways) - 1
        way_mb = self.way_mb[c]
        self.cap_priv[0, c] = _popcount(fg_bits & ~bg_bits & full) * way_mb
        self.cap_priv[1, c] = _popcount(bg_bits & ~fg_bits & full) * way_mb
        self.cap_sh[c] = _popcount(fg_bits & bg_bits & full) * way_mb

    def _derive_lanes(self):
        self.has_priv = self.cap_priv > 0
        self.has_sh = self.cap_sh > 0
        # writable = sum of lane capacities the app can write (<=2 terms).
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

    def _refresh_phases(self, progress, active):
        """Regather apki / working set / curve params where phases moved."""
        for c in np.nonzero(active)[0]:
            for a in range(2):
                app = self.apps[a][c]
                idx = app.phase_index_at(float(progress[a, c]))
                if idx == self._phase_idx[a, c]:
                    continue
                self._phase_idx[a, c] = idx
                threads = self.allocs[a][c].threads
                key = (id(app), idx, threads)
                params = self._phase_memo.get(key)
                if params is None:
                    phase = app.phases[idx]
                    aa = [amp * phase.amp_mult for amp, _ in app.mrc.components]
                    sw = [
                        scale * phase.ws_mult for _, scale in app.mrc.components
                    ]
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
        """``solve_interval`` over the cell axis.

        Returns full-width ``(2, C)`` arrays holding each active cell's
        final per-app solution (rate, cpi, miss/access rates, DRAM
        traffic, occupancy and miss ratio). Internally the working set
        holds only unconverged cells, shrinking as cells' damped rounds
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
        cell_idx = np.arange(C)
        for a, core_idx, mult, present in self.power_slots:
            vals = np.minimum(1.0, util[a] * mult)
            sel = np.nonzero(present)[0]
            core_utils[cell_idx[sel], core_idx[sel]] = vals[sel]
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

    # -- the event loop ----------------------------------------------------

    def run(self):
        C = self.n
        now = np.zeros(C)
        progress = np.zeros((2, C))
        instr_tot = np.zeros((2, C))
        miss_tot = np.zeros((2, C))
        acc_tot = np.zeros((2, C))
        pkg_acc = np.zeros(C)
        pp0_acc = np.zeros(C)
        wall_e = np.zeros(C)
        fg_done_time = np.zeros(C)
        done = np.zeros(C, dtype=bool)

        while not done.all():
            step = ~done
            if np.any(now[step] > _MAX_SIM_SECONDS):
                raise ValidationError("simulation exceeded the runaway guard")
            self._refresh_phases(progress, step)
            out = self._solve(step)
            socket_w, cores_w, _, wall_w = self._power(out)
            cores_llc_w = cores_w + self.llc_static_w

            with np.errstate(divide="ignore", invalid="ignore"):
                beyond = np.where(
                    self.bnd > (progress + _EPS)[..., None], self.bnd, np.inf
                )
                next_frac = beyond.min(axis=2)
                next_frac = np.where(np.isfinite(next_frac), next_frac, 1.0)
                cand = (next_frac - progress) * self.instructions / out["rate"]
            cand = np.where((out["rate"] <= 0) | self.skip_event, np.inf, cand)
            dt = np.minimum(cand[0], cand[1])
            if np.any(np.isinf(dt[step])):
                raise ValidationError("no runnable application made progress")
            dt = dt * (1.0 + 1e-9) + 1e-9
            dt = np.maximum(dt, 1e-6)
            # Finished cells advance by zero; their commits are masked
            # anyway, but a zero dt keeps inf/NaN out of the arithmetic.
            dt = np.where(step, dt, 0.0)

            dinstr = out["rate"] * dt[None, :]
            mask2 = step[None, :]
            instr_tot = np.where(mask2, instr_tot + dinstr, instr_tot)
            miss_tot = np.where(
                mask2, miss_tot + out["miss_ps"] * dt[None, :], miss_tot
            )
            acc_tot = np.where(
                mask2, acc_tot + out["access_ps"] * dt[None, :], acc_tot
            )
            new_progress = progress + dinstr / self.instructions

            fg_done_now = step & (new_progress[0] >= 1.0 - _EPS)
            fg_done_time = np.where(fg_done_now, now + dt, fg_done_time)

            bgp = new_progress[1]
            wrap = step & (bgp >= 1.0 - _EPS)
            wraps = np.maximum(1.0, np.trunc(bgp + _EPS))
            bgp = np.where(wrap, np.maximum(0.0, bgp - wraps), bgp)
            progress = np.where(
                mask2, np.stack([new_progress[0], bgp]), progress
            )

            total_misses = out["miss_ps"][0] * dt + out["miss_ps"][1] * dt
            pkg_acc = np.where(
                step,
                pkg_acc + (socket_w * dt + total_misses * self.dram_epm),
                pkg_acc,
            )
            pp0_acc = np.where(step, pp0_acc + cores_llc_w * dt, pp0_acc)
            wall_e = np.where(step, wall_e + wall_w * dt, wall_e)
            now = np.where(step, now + dt, now)
            done = done | fg_done_now

        return self._finalize(
            now, instr_tot, miss_tot, acc_tot, pkg_acc, pp0_acc, wall_e,
            fg_done_time,
        )

    def _finalize(self, now, instr_tot, miss_tot, acc_tot, pkg_acc,
                  pp0_acc, wall_e, fg_done_time):
        """RAPL truncation, energy shares, and PairResult assembly."""
        # RaplDomain.read_raw: int(acc / unit) % 2**32, read once at end.
        pkg_units = (
            np.trunc(pkg_acc / RAPL_ENERGY_UNIT_J).astype(np.int64)
            % _RAPL_WRAP
        )
        pp0_units = (
            np.trunc(pp0_acc / RAPL_ENERGY_UNIT_J).astype(np.int64)
            % _RAPL_WRAP
        )
        socket_j = pkg_units.astype(np.float64) * RAPL_ENERGY_UNIT_J
        pp0_j = pp0_units.astype(np.float64) * RAPL_ENERGY_UNIT_J

        results = []
        for c in range(self.n):
            totals = (float(instr_tot[0, c]), float(instr_tot[1, c]))
            total = sum(totals) or 1.0
            share = (totals[0] / total, totals[1] / total)
            avg_power = (
                float(wall_e[c]) / float(now[c]) if float(now[c]) else 0.0
            )
            runtimes = (float(fg_done_time[c]), float(now[c]))
            runs = []
            for a in range(2):
                runs.append(
                    RunResult(
                        name=self.apps[a][c].name,
                        runtime_s=runtimes[a],
                        instructions=totals[a],
                        llc_misses=float(miss_tot[a, c]),
                        llc_accesses=float(acc_tot[a, c]),
                        socket_energy_j=float(socket_j[c]) * share[a],
                        wall_energy_j=float(wall_e[c]) * share[a],
                        avg_power_w=avg_power,
                        pp0_energy_j=float(pp0_j[c]) * share[a],
                    )
                )
            fg_result, bg_result = runs
            bg_rate = (
                bg_result.instructions / fg_result.runtime_s
                if fg_result.runtime_s > 0
                else bg_result.ips
            )
            results.append(
                PairResult(
                    fg=fg_result,
                    bg=bg_result,
                    makespan_s=float(now[c]),
                    socket_energy_j=float(socket_j[c]),
                    wall_energy_j=float(wall_e[c]),
                    bg_rate_ips=bg_rate,
                    timeline=[],
                    pp0_energy_j=float(pp0_j[c]),
                )
            )
        return results


def models_memory_system(machine):
    """Whether the grid models ``machine``'s memory system.

    The grid derives the ring and DRAM domains from the config, so it
    holds only while the machine's domains are the plain ones built from
    that config — not, say, after
    :func:`repro.core.bandwidth_qos.apply_qos` installs a QoS domain.
    """
    from repro.cpu.bandwidth import BandwidthDomain

    memory, config = machine.memory_system, machine.config
    return all(
        type(domain) is BandwidthDomain and domain.capacity_bps == capacity
        for domain, capacity in (
            (memory.ring, config.ring_bandwidth_bps),
            (memory.dram, config.dram_bandwidth_bps),
        )
    )


class IntervalGrid:
    """``solve_interval`` of many two-app lanes in one vectorized solve.

    A lane is the pair of running
    :class:`~repro.sim.interval.AppState` (foreground first) of one run
    on one machine. Its apps, threads, cores, prefetch setting and
    config are fixed when the grid is built; what a run changes between
    intervals — progress, and so phases, and way masks — is read again
    at every :meth:`solve`. The fixed point is ``_Grid._solve`` over the
    lanes asked for, and each returned
    :class:`~repro.sim.interval.IntervalSolution` is bit for bit what
    ``solve_interval`` gives for the lane's states on its machine.
    """

    def __init__(self, lanes, tuning):
        """``lanes``: ``[(machine, (fg_state, bg_state))]``; every
        machine runs ``tuning`` and a memory system the grid models."""
        self.tuning = tuning
        self._lanes = []
        cells = []
        for machine, (fg, bg) in lanes:
            fixed = tuple(
                (s.allocation.threads, s.allocation.cores, s.prefetchers_on)
                for s in (fg, bg)
            )
            self._lanes.append((fg, bg, machine.config, fixed))
            cells.append(GridCell(
                fg=fg.app,
                bg=bg.app,
                fg_allocation=fg.allocation,
                bg_allocation=bg.allocation,
                config=machine.config,
                prefetchers_on=fg.prefetchers_on,
            ))
        self._grid = _Grid(cells, tuning, None)
        self._progress = np.zeros((2, len(cells)))

    @staticmethod
    def accepts(machine, states, tuning):
        """Whether a lane can be built from ``states`` on ``machine``."""
        return (
            len(states) == 2
            and states[0].prefetchers_on == states[1].prefetchers_on
            and machine.tuning is tuning
            and machine.power_model.config is machine.config
            and models_memory_system(machine)
        )

    def covers(self, lane, machine, states):
        """Whether ``states`` on ``machine`` are still what ``lane`` was
        built from (the same states, threads, cores, prefetch setting,
        config, tuning, power model and memory model)."""
        fg, bg, config, fixed = self._lanes[lane]
        return (
            len(states) == 2
            and states[0] is fg
            and states[1] is bg
            and machine.config is config
            and machine.power_model.config is config
            and machine.tuning is self.tuning
            and fixed == tuple(
                (s.allocation.threads, s.allocation.cores, s.prefetchers_on)
                for s in states
            )
            and models_memory_system(machine)
        )

    def solve(self, requests):
        """``[IntervalSolution]`` for ``[(lane, machine)]``, in order:
        each lane's states as they stand now, all in one solve."""
        grid, progress = self._grid, self._progress
        step = np.zeros(grid.n, dtype=bool)
        moved = False
        for lane, _ in requests:
            fg, bg = self._lanes[lane][:2]
            if (
                grid.allocs[0][lane].mask.bits != fg.allocation.mask.bits
                or grid.allocs[1][lane].mask.bits != bg.allocation.mask.bits
            ):
                grid.allocs[0][lane] = fg.allocation
                grid.allocs[1][lane] = bg.allocation
                grid._set_masks(lane)
                moved = True
            progress[0, lane] = fg.progress
            progress[1, lane] = bg.progress
            step[lane] = True
        if moved:
            grid._derive_lanes()
        grid._refresh_phases(progress, step)
        out = grid._solve(step)
        idx = [lane for lane, _ in requests]
        # Python floats per lane, as ``solve_interval`` holds them.
        cols = {
            name: values[..., idx].tolist()
            for name, values in (
                *out.items(),
                ("apki", grid.apki),
                *zip(("socket_w", "cores_w", "dram_w", "wall_w"),
                     grid._power(out)),
            )
        }
        return [
            self._solution(cols, j, lane, machine)
            for j, (lane, machine) in enumerate(requests)
        ]

    def _solution(self, cols, j, lane, machine):
        """The IntervalSolution of column ``j`` of ``cols``, assembled as
        ``solve_interval`` assembles its last round."""
        from repro.energy.model import PowerBreakdown
        from repro.sim.interval import AppRates, IntervalSolution

        config = machine.config
        per_app = {}
        llc_traffic = {}
        dram_demand = {}
        for a, s in enumerate(self._lanes[lane][:2]):
            app = s.app
            cpi = cols["cpi"][a][j]
            apki = cols["apki"][a][j]
            access_ps = cols["access_ps"][a][j]
            dram_bytes = cols["dram_bytes"][a][j]
            llc_traffic[s.name] = llc_bytes = access_ps * config.line_size
            dram_demand[s.name] = dram_bytes / app.dram_efficiency
            per_app[s.name] = AppRates(
                name=s.name,
                rate_ips=cols["rate"][a][j],
                cpi=cpi,
                apki=apki,
                mpki=apki * cols["mr"][a][j],
                miss_rate_ps=cols["miss_ps"][a][j],
                access_rate_ps=access_ps,
                occupancy_mb=cols["occupancy"][a][j],
                dram_bytes_ps=dram_bytes,
                llc_bytes_ps=llc_bytes,
                core_utilization=min(1.0, app.base_cpi / cpi),
                speedup=app.speedup(s.allocation.threads),
            )
        memory = machine.memory_system
        return IntervalSolution(
            per_app=per_app,
            dram_utilization=memory.dram.utilization(dram_demand),
            ring_utilization=memory.ring.utilization(llc_traffic),
            power=PowerBreakdown(
                socket_w=cols["socket_w"][j],
                cores_w=cols["cores_w"][j],
                llc_w=config.llc_static_w,
                dram_w=cols["dram_w"][j],
                wall_w=cols["wall_w"][j],
            ),
        )


def run_pair_grid(cells, tuning=None, config=None):
    """Solve every :class:`GridCell` in one vectorized batch.

    Returns ``[PairResult]`` in cell order, bit-identical to calling
    ``Machine.run_pair`` per cell with the same tuning and configs
    (``bg_continuous=True``, no controller, no timeline). Raises the
    same errors a sequential loop would raise at its first failing cell.
    """
    cells = list(cells)
    if not cells:
        return []
    tuning = tuning or DEFAULT_TUNING
    if config is None:
        from repro.cpu.config import SandyBridgeConfig

        config = SandyBridgeConfig()
    grid = _Grid(cells, tuning, config)
    perf.add(perf.GRID_CALLS)
    perf.add(perf.GRID_CELLS, len(cells))
    return grid.run()


__all__ = ["GridCell", "IntervalGrid", "models_memory_system", "run_pair_grid"]
