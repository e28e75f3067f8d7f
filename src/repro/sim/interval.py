"""The per-interval performance fixed point.

Given each running application's phase and allocation, solve
self-consistently for instruction rates, miss rates, bandwidth grants and
latency inflation, then report power. Rates feed traffic, traffic feeds
queueing latency, latency feeds CPI, CPI feeds rates — iterated with
damping until stable (a handful of rounds in practice).
"""

from dataclasses import dataclass, field

from repro.sim.occupancy import OccupancyRequest, solve_occupancy
from repro.sim.tuning import DEFAULT_TUNING
from repro.util.errors import ValidationError


@dataclass
class AppState:
    """One application's dynamic state inside a run."""

    app: object  # ApplicationModel
    allocation: object  # Allocation
    progress: float = 0.0  # fraction of instructions retired (mod 1)
    completions: int = 0  # times the app has finished (continuous mode)
    prefetchers_on: bool = True
    # Phase boundaries are static per app; computed once per run so the
    # event loop never rebuilds the list per interval.
    boundaries: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        self.boundaries = tuple(self.app.phase_boundaries())

    @property
    def name(self):
        return self.app.name

    def phase(self):
        return self.app.phase_at(self.progress)


@dataclass
class AppRates:
    """Solved steady behaviour of one application for this interval."""

    name: str
    rate_ips: float  # instructions per second
    cpi: float
    apki: float
    mpki: float
    miss_rate_ps: float  # LLC misses per second
    access_rate_ps: float  # LLC accesses per second
    occupancy_mb: float
    dram_bytes_ps: float
    llc_bytes_ps: float
    core_utilization: float
    speedup: float


@dataclass
class IntervalSolution:
    """Everything solved for one interval."""

    per_app: dict = field(default_factory=dict)  # name -> AppRates
    dram_utilization: float = 0.0
    ring_utilization: float = 0.0
    power: object = None  # PowerBreakdown


def _effective_pf(app, state, num_apps, dram_latency_factor=1.0, tuning=DEFAULT_TUNING):
    if not state.prefetchers_on or app.pf_coverage <= 0:
        return 0.0
    threads = 1 if app.scalability.single_threaded else state.allocation.threads
    thread_decay = 1.0 / (1.0 + tuning.pf_thread_decay * (threads - 1))
    corun_decay = max(0.0, 1.0 - tuning.pf_interference * (num_apps - 1))
    # Timeliness follows the latency inflation *this app's* requests see
    # (f = 1 + 0.35 rho^3, inverted): prefetches in a QoS priority lane
    # don't queue behind demand traffic and stay timely.
    rho = min(1.0, max(0.0, (dram_latency_factor - 1.0) / 0.35)) ** (1.0 / 3.0)
    timeliness = 1.0 - tuning.pf_timeliness_loss * rho ** 2
    return app.pf_coverage * thread_decay * corun_decay * timeliness


def solve_interval(states, config, memory_system, power_model, tuning=None):
    """Solve the rate/occupancy/bandwidth fixed point for ``states``."""
    tuning = tuning or DEFAULT_TUNING
    if not states:
        raise ValidationError("need at least one running application")
    names = [s.name for s in states]
    if len(set(names)) != len(names):
        raise ValidationError("co-running applications must be distinct")

    freq = config.frequency_hz
    # Initial rate guess: no memory stalls at all.
    rates = {
        s.name: s.app.speedup(s.allocation.threads) * freq / s.app.base_cpi
        for s in states
    }
    latency_factors = {s.name: (1.0, 1.0) for s in states}  # (ring, dram)
    throttles = {s.name: 1.0 for s in states}
    solution = IntervalSolution()
    # Each rate round re-solves occupancy under slightly different access
    # rates; warm-starting from the previous round's shares lets the
    # occupancy solver's early exit fire after a few iterations.
    occupancy_tol = tuning.occupancy_tol
    warm_shares = None

    # Per-state quantities that are fixed for the whole solve (phase,
    # allocation, and model parameters do not change between rounds).
    phases = {s.name: s.phase() for s in states}
    apkis = {s.name: s.app.apki(phases[s.name], s.allocation.threads) for s in states}
    working_sets = {s.name: s.app.working_set_mb(phases[s.name]) for s in states}
    miss_ratio_fns = {
        s.name: (lambda c, a=s.app, p=phases[s.name]: a.miss_ratio(c, phase=p))
        for s in states
    }
    speedups = {s.name: s.app.speedup(s.allocation.threads) for s in states}
    # MLP is the arbitration weight: deep-MLP streamers keep more
    # requests in flight and win a FR-FCFS-like memory scheduler.
    arb_weights = {s.name: s.app.mlp ** 0.5 for s in states}

    for _ in range(tuning.max_rounds):
        # -- occupancy given access rates ------------------------------
        requests = []
        for s in states:
            access_rate = rates[s.name] * apkis[s.name] / 1000.0
            requests.append(
                OccupancyRequest(
                    name=s.name,
                    mask=s.allocation.mask,
                    access_rate=access_rate,
                    miss_ratio_fn=miss_ratio_fns[s.name],
                    working_set_mb=working_sets[s.name],
                    pressure_weight=s.app.cache_pressure,
                )
            )
        if occupancy_tol > 0:
            occupancy, warm_shares = solve_occupancy(
                requests,
                num_ways=config.llc_ways,
                way_mb=config.way_bytes / (1 << 20),
                tol=occupancy_tol,
                initial_shares=warm_shares,
                return_shares=True,
            )
        else:
            occupancy = solve_occupancy(
                requests,
                num_ways=config.llc_ways,
                way_mb=config.way_bytes / (1 << 20),
                tol=0.0,
            )

        # -- rates given occupancy and contention -----------------------
        new_rates = {}
        per_app = {}
        llc_traffic = {}
        dram_traffic = {}
        dram_demand = {}
        for s in states:
            app = s.app
            phase = phases[s.name]
            threads = s.allocation.threads
            apki = apkis[s.name]
            ways = s.allocation.mask.count
            mr = app.miss_ratio(occupancy[s.name], ways=ways, phase=phase)
            _, dram_f_prev = latency_factors[s.name]
            pf_eff = _effective_pf(app, s, len(states), dram_f_prev, tuning)
            if s.prefetchers_on:
                mr = min(1.0, mr + app.pf_pollution)
            ring_f, dram_f = latency_factors[s.name]

            llc_lat = config.llc_latency_cycles * ring_f
            mem_lat = (
                config.llc_latency_cycles * ring_f
                + config.dram_latency_cycles * dram_f
            ) * (1.0 - tuning.pf_hide * pf_eff)
            stall_cpi = (apki / 1000.0) * (
                (1.0 - mr) * llc_lat + mr * mem_lat
            ) / app.mlp
            cpi = app.base_cpi + stall_cpi
            speedup = speedups[s.name]
            rate = speedup * freq / cpi * throttles[s.name]

            access_ps = rate * apki / 1000.0
            miss_ps = access_ps * mr
            pf_traffic_mult = 1.0 + tuning.pf_traffic * pf_eff
            llc_bytes = access_ps * config.line_size
            dram_bytes = (
                miss_ps
                * config.line_size
                * (1.0 + app.wb_fraction)
                * pf_traffic_mult
            )
            llc_traffic[s.name] = llc_bytes
            dram_traffic[s.name] = dram_bytes
            dram_demand[s.name] = dram_bytes / app.dram_efficiency

            new_rates[s.name] = rate
            per_app[s.name] = AppRates(
                name=s.name,
                rate_ips=rate,
                cpi=cpi,
                apki=apki,
                mpki=apki * mr,
                miss_rate_ps=miss_ps,
                access_rate_ps=access_ps,
                occupancy_mb=occupancy[s.name],
                dram_bytes_ps=dram_bytes,
                llc_bytes_ps=llc_bytes,
                core_utilization=min(1.0, app.base_cpi / cpi),
                speedup=speedup,
            )

        # -- bandwidth arbitration ----------------------------------------
        ring_grants = memory_system.ring.resolve(llc_traffic, arb_weights)
        dram_grants = memory_system.dram.resolve(dram_demand, arb_weights)
        converged = True
        for s in states:
            name = s.name
            ring_g = ring_grants[name]
            dram_g = dram_grants[name]
            latency_factors[name] = (ring_g.latency_factor, dram_g.latency_factor)
            scale = 1.0
            if llc_traffic[name] > 0:
                scale = min(scale, ring_g.granted_bps / llc_traffic[name])
            if dram_demand[name] > 0:
                scale = min(scale, dram_g.granted_bps / dram_demand[name])
            target = throttles[name] * scale
            new_throttle = tuning.damping * throttles[name] + (1 - tuning.damping) * min(
                1.0, target
            )
            if abs(new_throttle - throttles[name]) > tuning.tolerance:
                converged = False
            throttles[name] = max(1e-3, new_throttle)
            old = rates[name]
            rates[name] = new_rates[name]
            if old > 0 and abs(rates[name] - old) / old > tuning.tolerance:
                converged = False

        solution.per_app = per_app
        solution.ring_utilization = memory_system.ring.utilization(llc_traffic)
        solution.dram_utilization = memory_system.dram.utilization(dram_demand)
        if converged:
            break

    solution.power = interval_power(states, solution.per_app, config, power_model)
    return solution


def interval_power(states, per_app, config, power_model):
    """The power breakdown of a solved interval's ``per_app`` rates."""
    # While any work runs, every core stays powered (Sandy Bridge client
    # parts cannot gate individual cores under load) — idle cores burn
    # static power. This is what makes consolidation save energy over
    # sequential execution (Section 5.3).
    core_utils = {core: 0.0 for core in range(config.num_cores)}
    for s in states:
        util = per_app[s.name].core_utilization
        threads = s.allocation.threads
        for i, core in enumerate(s.allocation.cores):
            # The last core may run only one of its two hyperthreads.
            threads_here = 2 if (i + 1) * 2 <= threads else max(1, threads - 2 * i)
            core_utils[core] = min(1.0, util * (0.65 + 0.35 * (threads_here / 2)))
    total_dram = sum(r.dram_bytes_ps for r in per_app.values())
    return power_model.breakdown(core_utils, dram_traffic_bps=total_dram)
