"""The machine: runs applications to completion and measures them.

``Machine.run_solo`` and ``Machine.run_pair`` are what every experiment
driver calls. Static allocations use exact event-driven execution (rates
are constant between phase boundaries and completions); a dynamic
controller forces fixed 100 ms stepping, matching the paper's control
period.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.bandwidth import MemorySystem
from repro.cpu.config import SandyBridgeConfig
from repro.energy.model import PowerModel
from repro.energy.rapl import RAPL_WRAP_J, RaplCounter, RaplDomain
from repro.energy.wall import WallMeter
from repro.sim.allocation import Allocation
from repro.sim.interval import AppState, solve_interval
from repro.sim.memo import IntervalMemo
from repro.util.errors import SchedulingError, ValidationError

_EPS = 1e-9
_MAX_SIM_SECONDS = 50_000.0
# Most energy deposited between two RAPL polls: half a counter wrap, so
# no wrap goes unseen (``RaplCounter.update``).
_POLL_J = RAPL_WRAP_J / 2
# Most ticks one pass of a quiet stretch sums at a time.
_STRETCH_TICKS = 4096


@dataclass
class RunResult:
    """Measurements for one application's run (or one run phase)."""

    name: str
    runtime_s: float
    instructions: float
    llc_misses: float
    llc_accesses: float
    socket_energy_j: float
    wall_energy_j: float
    avg_power_w: float = 0.0
    pp0_energy_j: float = 0.0  # cores + caches (RAPL power-plane 0)

    @property
    def mpki(self):
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    @property
    def ips(self):
        return self.instructions / self.runtime_s if self.runtime_s else 0.0


@dataclass
class TimelinePoint:
    """One sampled instant of a run (drives Fig. 12-style plots)."""

    time_s: float
    per_app: dict  # name -> {"mpki", "ways", "rate_ips", "occupancy_mb"}


@dataclass
class PairResult:
    """Measurements for a co-scheduled foreground/background run."""

    fg: RunResult
    bg: RunResult
    makespan_s: float
    socket_energy_j: float
    wall_energy_j: float
    bg_rate_ips: float  # background instructions per second while fg ran
    timeline: list = field(default_factory=list)
    pp0_energy_j: float = 0.0


@dataclass
class GroupResult:
    """Measurements for a foreground with multiple background peers
    (the Section 6.3 extension)."""

    fg: RunResult
    backgrounds: dict  # name -> RunResult
    makespan_s: float
    socket_energy_j: float
    wall_energy_j: float
    bg_rate_ips: float  # aggregate background instructions per second
    timeline: list = field(default_factory=list)


class Machine:
    """The simulated platform: config + memory system + energy meters.

    ``tuning`` overrides the engine's second-order coefficients
    (:class:`repro.sim.tuning.EngineTuning`). ``mpki_noise_std`` injects
    relative Gaussian measurement noise into the MPKI samples the
    dynamic controller reads — the real platform's counters are noisy,
    and the published thresholds were tuned for that; noise here lets
    robustness be tested deterministically (seeded).
    """

    def __init__(
        self, config=None, tuning=None, mpki_noise_std=0.0, noise_seed=0, memoize=True
    ):
        from repro.sim.tuning import DEFAULT_TUNING

        if mpki_noise_std < 0:
            raise ValidationError("noise cannot be negative")
        self.config = config or SandyBridgeConfig()
        self.tuning = tuning or DEFAULT_TUNING
        self.mpki_noise_std = mpki_noise_std
        self.noise_seed = noise_seed
        self.memory_system = MemorySystem(self.config)
        self.power_model = PowerModel(self.config)
        self.memo = IntervalMemo(enabled=memoize)
        # Shared solo-run results, keyed (name, threads, ways, prefetchers_on):
        # the pairwise, consolidation, and characterization studies all
        # measure the same solo baselines.
        self.solo_cache = {}

    # -- public entry points -------------------------------------------------

    def run_solo(
        self,
        app,
        threads=4,
        ways=12,
        first_core=0,
        timeline=False,
        prefetchers_on=True,
    ):
        """Run one application alone and measure it."""
        from repro.cache.llc import WayMask

        allocation = Allocation(
            threads=threads,
            cores=tuple(range(first_core, first_core + (threads + 1) // 2)),
            mask=WayMask.contiguous(ways, 0, self.config.llc_ways),
        )
        state = AppState(app=app, allocation=allocation, prefetchers_on=prefetchers_on)
        outcome = self.solve_steps(self._steps(
            [state], continuous=set(), stop_when_done={app.name}, timeline=timeline
        ))
        return outcome.results[app.name]

    def run_solo_cached(self, app, threads=4, ways=12, prefetchers_on=True):
        """``run_solo`` through the shared solo-run cache.

        Results are deterministic, so a cached RunResult is bitwise what a
        fresh run would measure; callers treat results as read-only.
        """
        key = (app.name, threads, ways, prefetchers_on)
        if key not in self.solo_cache:
            self.solo_cache[key] = self.run_solo(
                app, threads=threads, ways=ways, prefetchers_on=prefetchers_on
            )
        return self.solo_cache[key]

    def run_pair(self, fg, bg, fg_allocation, bg_allocation, **options):
        """Co-run a foreground and a background application.

        With ``bg_continuous`` (the default) the background restarts
        until the foreground completes (the paper's responsiveness
        experiments); otherwise both run exactly once (the energy
        experiments). A ``controller`` forces stepped execution (default
        100 ms). ``options`` are :meth:`pair_steps`'s.
        """
        return self.solve_steps(
            self.pair_steps(fg, bg, fg_allocation, bg_allocation, **options)
        )

    def pair_steps(
        self,
        fg,
        bg,
        fg_allocation,
        bg_allocation,
        bg_continuous=True,
        controller=None,
        step_s=None,
        timeline=False,
        prefetchers_on=True,
    ):
        """:meth:`run_pair` as a step generator (see :meth:`_steps`);
        returns the :class:`PairResult`."""
        if fg.name == bg.name:
            # Running an app against a copy of itself (the paper's C1+C1
            # style pairs): alias the background so states stay distinct.
            import dataclasses

            bg = dataclasses.replace(bg, name=f"{bg.name}#2", phases=bg.phases)
        if fg_allocation.overlaps_cores(bg_allocation):
            raise SchedulingError("co-scheduled applications must use disjoint cores")
        fg_state = AppState(app=fg, allocation=fg_allocation, prefetchers_on=prefetchers_on)
        bg_state = AppState(app=bg, allocation=bg_allocation, prefetchers_on=prefetchers_on)
        continuous = {bg.name} if bg_continuous else set()
        stop = {fg.name} if bg_continuous else {fg.name, bg.name}
        if controller is not None and step_s is None:
            step_s = 0.1
        outcome = yield from self._steps(
            [fg_state, bg_state],
            continuous=continuous,
            stop_when_done=stop,
            controller=controller,
            step_s=step_s,
            timeline=timeline,
        )
        fg_result = outcome.results[fg.name]
        bg_result = outcome.results[bg.name]
        bg_rate = (
            bg_result.instructions / fg_result.runtime_s
            if bg_continuous and fg_result.runtime_s > 0
            else bg_result.ips
        )
        return PairResult(
            fg=fg_result,
            bg=bg_result,
            makespan_s=outcome.elapsed_s,
            socket_energy_j=outcome.socket_energy_j,
            wall_energy_j=outcome.wall_energy_j,
            bg_rate_ips=bg_rate,
            timeline=outcome.timeline,
            pp0_energy_j=outcome.pp0_energy_j,
        )

    def run_group(self, fg, backgrounds, fg_allocation, bg_allocations,
                  **options):
        """Co-run a foreground with multiple background peers.

        The paper's Section 6.3 extension: background peers are pinned to
        their own cores but share one LLC partition, inside which they
        contend for capacity. Peers run continuously until the foreground
        completes. Duplicate application models are aliased ("#2", ...).
        ``options`` are :meth:`group_steps`'s.
        """
        return self.solve_steps(self.group_steps(
            fg, backgrounds, fg_allocation, bg_allocations, **options
        ))

    def group_steps(
        self,
        fg,
        backgrounds,
        fg_allocation,
        bg_allocations,
        controller=None,
        step_s=None,
        timeline=False,
    ):
        """:meth:`run_group` as a step generator (see :meth:`_steps`);
        returns the :class:`GroupResult`."""
        import dataclasses

        if not backgrounds:
            raise ValidationError("need at least one background application")
        seen = {fg.name}
        bg_list = []
        for bg in backgrounds:
            name = bg.name
            suffix = 2
            while name in seen:
                name = f"{bg.name}#{suffix}"
                suffix += 1
            if name != bg.name:
                bg = dataclasses.replace(bg, name=name, phases=bg.phases)
            seen.add(name)
            bg_list.append(bg)
        if len(bg_allocations) != len(bg_list):
            raise ValidationError("one allocation per background required")
        allocations = [fg_allocation] + list(bg_allocations)
        for i, a in enumerate(allocations):
            for b in allocations[i + 1:]:
                if a.overlaps_cores(b):
                    raise SchedulingError("applications must use disjoint cores")

        states = [AppState(app=fg, allocation=fg_allocation)]
        states += [
            AppState(app=bg, allocation=alloc)
            for bg, alloc in zip(bg_list, bg_allocations)
        ]
        if controller is not None and step_s is None:
            step_s = 0.1
        outcome = yield from self._steps(
            states,
            continuous={bg.name for bg in bg_list},
            stop_when_done={fg.name},
            controller=controller,
            step_s=step_s,
            timeline=timeline,
        )
        fg_result = outcome.results[fg.name]
        bg_results = {bg.name: outcome.results[bg.name] for bg in bg_list}
        total_bg = sum(r.instructions for r in bg_results.values())
        return GroupResult(
            fg=fg_result,
            backgrounds=bg_results,
            makespan_s=outcome.elapsed_s,
            socket_energy_j=outcome.socket_energy_j,
            wall_energy_j=outcome.wall_energy_j,
            bg_rate_ips=total_bg / fg_result.runtime_s if fg_result.runtime_s else 0.0,
            timeline=outcome.timeline,
        )

    # -- the core loop ----------------------------------------------------------

    def solve_steps(self, steps):
        """Run a step generator (:meth:`_steps`, or one delegating to
        it) to its end, solving each interval it yields with
        ``solve_interval`` on this machine; returns its result.
        :func:`run_lockstep` drives many at once instead."""
        try:
            active = next(steps)
            while True:
                active = steps.send(self._solve(active))
        except StopIteration as stop:
            return stop.value

    def _solve(self, active):
        return solve_interval(
            active,
            self.config,
            self.memory_system,
            self.power_model,
            tuning=self.tuning,
        )

    def _steps(
        self,
        states,
        continuous,
        stop_when_done,
        controller=None,
        step_s=None,
        timeline=False,
    ):
        """The tick loop, as a generator: it yields ``active`` (the
        running AppStates) whenever it needs an interval solved that
        the memo does not hold, expects the :class:`IntervalSolution`
        of exactly ``solve_interval(active, ...)`` on this machine back,
        and returns the run's ``_Outcome``."""
        outcome = _Outcome()
        pkg = RaplDomain("package")
        pp0 = RaplDomain("pp0")
        pkg_reader = RaplCounter(pkg)
        pp0_reader = RaplCounter(pp0)
        wall = WallMeter()
        # Names are read once per run: AppState.name is a property.
        names = [s.name for s in states]
        totals = {
            name: {"instructions": 0.0, "misses": 0.0, "accesses": 0.0}
            for name in names
        }
        noise_rng = None
        if self.mpki_noise_std > 0:
            from repro.util.rng import DeterministicRng

            noise_rng = DeterministicRng(self.noise_seed, "mpki-noise")
        # Held, quiet ticks of the Algorithm 6.2 controller repeat
        # themselves (``_quiet_stretch``). Other controllers, noisy
        # samples and timelines need every tick's call.
        quiet_ok = False
        if controller is not None and step_s is not None:
            from repro.core.dynamic import DynamicPartitionController

            quiet_ok = (
                type(controller) is DynamicPartitionController
                and noise_rng is None
                and not timeline
            )
        done_times = {}
        active = list(states)
        # (state, name, totals row) of every active app; rebuilt, with
        # ``active`` and ``pending``, only on a tick where an app finishes.
        running = [(s, name, totals[name]) for s, name in zip(states, names)]
        pending = list(stop_when_done)
        by_name = dict(zip(names, states))
        miss_energy = self.power_model.miss_energy
        memo, memory_system = self.memo, self.memory_system
        # With the memo on, a stepped run's last solution holds until an
        # event that can change its memo key: an app leaving its phase's
        # progress window, a mask write, a finish, or a swapped config,
        # tuning or arbitration domain. Each held tick counts as the memo
        # hit a rebuilt key would have been. An event-driven run ends
        # every step at such an event, so it holds nothing.
        held = None  # (config, tuning, ring, dram) at the last solve
        windows = ()  # (state, lo, hi) per active app at the last solve
        reused = 0
        now = 0.0

        while pending:
            if now > _MAX_SIM_SECONDS:
                raise ValidationError("simulation exceeded the runaway guard")

            holds = (
                held is not None
                and held[0] is self.config
                and held[1] is self.tuning
                and held[2] is memory_system.ring
                and held[3] is memory_system.dram
            )
            if holds:
                for s, lo, hi in windows:
                    if not lo <= s.progress < hi:
                        holds = False
                        break
            if holds:
                reused += 1
            else:
                memoized = memo is not None and memo.enabled
                solution = key = None
                if memoized:
                    key = memo.key_for(
                        active, self.config, self.tuning, self.memory_system
                    )
                    solution = memo.get(key)
                if solution is None:
                    solution = yield active
                    if memoized:
                        memo.put(key, solution)
                if memoized and step_s is not None:
                    held = (
                        self.config, self.tuning,
                        memory_system.ring, memory_system.dram,
                    )
                    windows = [
                        (s, *s.app.phase_window(s.progress)) for s in active
                    ]
            per_app = solution.per_app

            if step_s is not None:
                dt = step_s
            else:
                dt = self._next_event_dt(running, solution, continuous)
            dt = max(dt, 1e-6)

            # Misses add up from 0 in ``states`` order, as they always
            # have: the float addition order is part of bit-identity.
            total_misses = 0
            finished = False
            for s, name, row in running:
                rates = per_app[name]
                dinstr = rates.rate_ips * dt
                misses = rates.miss_rate_ps * dt
                row["instructions"] += dinstr
                row["misses"] += misses
                row["accesses"] += rates.access_rate_ps * dt
                total_misses += misses
                s.progress += dinstr / s.app.instructions
                if s.progress >= 1.0 - _EPS:
                    if name in continuous:
                        wraps = max(1, int(s.progress + _EPS))
                        s.completions += wraps
                        s.progress = max(0.0, s.progress - wraps)
                    else:
                        done_times[name] = now + dt
                        finished = True
            if finished:
                held = None
                running = [r for r in running if r[1] not in done_times]
                active = [r[0] for r in running]
                pending = [n for n in pending if n not in done_times]

            power = solution.power
            _meter(pkg, pkg_reader, power.socket_w * dt + miss_energy(total_misses))
            _meter(pp0, pp0_reader, (power.cores_w + power.llc_w) * dt)
            wall.advance(dt, power.wall_w)
            now += dt

            if timeline:
                outcome.timeline.append(
                    TimelinePoint(
                        time_s=now,
                        per_app={
                            name: {
                                "mpki": r.mpki,
                                "ways": by_name[name].allocation.mask.count,
                                "rate_ips": r.rate_ips,
                                "occupancy_mb": r.occupancy_mb,
                            }
                            for name, r in per_app.items()
                        },
                    )
                )

            # A held tick after a quiet one, such as the wrap that ended a
            # stretch, feeds the controller the same sample again: it is
            # quiet too, and needs no call.
            quiet = quiet_ok and controller.quiet
            if controller is not None and not (quiet and holds):
                if self._apply_controller(
                    controller, now, dt, solution, states, totals, noise_rng
                ):
                    held = None
                quiet = quiet_ok and controller.quiet
            if quiet and held is not None:
                ticks, now = self._quiet_stretch(
                    now, dt, solution, running, windows,
                    (pkg, pkg_reader), (pp0, pp0_reader), wall,
                )
                reused += ticks

            if not active:
                break

        if reused:
            memo.hit(reused)
        outcome.elapsed_s = now
        outcome.socket_energy_j = pkg_reader.energy_j
        outcome.pp0_energy_j = pp0_reader.energy_j
        outcome.wall_energy_j = wall.energy_j
        share = self._energy_shares(states, totals)
        for s in states:
            runtime = done_times.get(s.name, now)
            outcome.results[s.name] = RunResult(
                name=s.name,
                runtime_s=runtime,
                instructions=totals[s.name]["instructions"],
                llc_misses=totals[s.name]["misses"],
                llc_accesses=totals[s.name]["accesses"],
                socket_energy_j=outcome.socket_energy_j * share[s.name],
                wall_energy_j=outcome.wall_energy_j * share[s.name],
                avg_power_w=wall.average_power_w(),
                pp0_energy_j=outcome.pp0_energy_j * share[s.name],
            )
        return outcome

    def _quiet_stretch(self, now, dt, solution, running, windows, pkg, pp0, wall):
        """Run the held ticks that follow a quiet controller tick.

        While the solution holds, each tick feeds the controller the
        same sample, so a tick that left it unchanged is followed by
        more such ticks: they need no call, no metrics and no solve. The
        stretch runs them up to the next event, which is the first tick
        that would start outside an app's phase window, finish or wrap
        an app, or start past the runaway guard; the caller's loop then
        runs that tick. Every per-tick delta is computed once, and each
        running total is taken by ``np.add.accumulate``, which repeats
        the same float additions in the same order, so the run measures
        bit for bit what per-tick calls would. ``pkg`` and ``pp0`` are
        (domain, reader) pairs, polled at most ``_POLL_J`` apart.
        Returns (ticks run, ``now`` after them).
        """
        per_app = solution.per_app
        # Row 0 is the clock, then (progress, instructions, misses,
        # accesses) per app: their values now, and their per-tick deltas.
        starts, deltas = [now], [dt]
        bounds, totals = [], []  # (lo, hi, progress per tick), (state, row)
        total_misses = 0
        for (s, lo, hi), (_, name, row) in zip(windows, running):
            rates = per_app[name]
            dinstr = rates.rate_ips * dt
            misses = rates.miss_rate_ps * dt
            total_misses += misses
            dprogress = dinstr / s.app.instructions
            starts += [
                s.progress, row["instructions"], row["misses"], row["accesses"]
            ]
            deltas += [dprogress, dinstr, misses, rates.access_rate_ps * dt]
            bounds.append((lo, hi, dprogress))
            totals.append((s, row))
        power = solution.power
        pkg_j = power.socket_w * dt + self.power_model.miss_energy(total_misses)
        pp0_j = (power.cores_w + power.llc_w) * dt
        per_poll = min(int(_POLL_J / max(pkg_j, pp0_j, _EPS)), _STRETCH_TICKS)
        deltas = np.array(deltas)[:, None]
        lo, hi, dprogress = np.array(bounds).T[:, :, None]
        finish = 1.0 - _EPS
        ticks = 0
        while True:
            # Ticks to the next event, estimated: the sums find the exact
            # tick, and an estimate that falls short only adds a pass.
            ahead = (_MAX_SIM_SECONDS - now) / dt
            for p, (_, h, d) in zip(starts[1::4], bounds):
                if d > 0:
                    ahead = min(ahead, (min(h, finish - d) - p) / d)
            width = min(per_poll, max(int(ahead), 0) + 2)
            # Column k: every total after k more ticks.
            sums = np.empty((len(starts), width + 1))
            sums[:, :1] = np.array(starts)[:, None]
            sums[:, 1:] = deltas
            sums = np.add.accumulate(sums, axis=1)
            # The ticks that start inside every app's phase window, short
            # of its finish, and inside the runaway guard.
            progress = sums[1::4, :-1]
            runs = (
                (lo <= progress) & (progress < hi)
                & (progress + dprogress < finish)
            ).all(axis=0) & (sums[0, :-1] <= _MAX_SIM_SECONDS)
            n = width if runs.all() else int(runs.argmin())
            if not n:
                return ticks, now
            starts = sums[:, n].tolist()
            now = starts[0]
            for i, (s, row) in enumerate(totals):
                (s.progress, row["instructions"], row["misses"],
                 row["accesses"]) = starts[1 + 4 * i: 5 + 4 * i]
            for (domain, reader), joules in ((pkg, pkg_j), (pp0, pp0_j)):
                domain.deposit(joules, n)
                reader.update()
            wall.advance(dt, power.wall_w, n)
            ticks += n
            if n < width:
                return ticks, now

    def _next_event_dt(self, running, solution, continuous):
        """Time until the next rate-changing event.

        Events are phase boundaries and completions of finite apps. A
        single-phase *continuous* app never changes the operating point
        when it wraps, so it contributes no events — this is what makes
        long foregrounds over short background loops cheap to simulate.
        """
        dt = float("inf")
        per_app = solution.per_app
        for s, name, _ in running:
            rate = per_app[name].rate_ips
            if rate <= 0:
                continue
            boundaries = s.boundaries
            if name in continuous and len(boundaries) == 1:
                continue
            progress = s.progress
            for next_frac in boundaries:
                if next_frac > progress + _EPS:
                    break
            else:
                next_frac = 1.0
            dinstr = (next_frac - progress) * s.app.instructions
            dt = min(dt, dinstr / rate)
        if dt == float("inf"):
            raise ValidationError("no runnable application made progress")
        return dt * (1.0 + 1e-9) + 1e-9

    def _apply_controller(
        self, controller, now, dt, solution, states, totals, noise_rng=None
    ):
        """Feed the controller per-app metrics; apply any new masks.

        Returns whether it wrote a mask.
        """
        metrics = {
            name: {
                "mpki": rates.mpki
                * (
                    max(0.0, 1.0 + noise_rng.normal(0.0, self.mpki_noise_std))
                    if noise_rng is not None
                    else 1.0
                ),
                "instructions": totals[name]["instructions"],
                "misses": totals[name]["misses"],
                "occupancy_mb": rates.occupancy_mb,
            }
            for name, rates in solution.per_app.items()
        }
        new_masks = controller.on_tick(now, dt, metrics)
        if not new_masks:
            return False
        wrote = False
        for s in states:
            # "#2"-aliased self-pair clones answer to their base name too.
            key = s.name if s.name in new_masks else s.name.split("#")[0]
            if key in new_masks:
                s.allocation = s.allocation.with_mask(new_masks[key])
                wrote = True
        return wrote

    @staticmethod
    def _energy_shares(states, totals):
        """Attribute machine energy to apps by instruction-weighted share.

        Only used for bookkeeping on solo runs (share = 1); pair results
        report machine-level energy, as the paper's RAPL counters do.
        """
        total = sum(t["instructions"] for t in totals.values()) or 1.0
        if len(states) == 1:
            return {states[0].name: 1.0}
        return {name: t["instructions"] / total for name, t in totals.items()}


# Fewest grid lanes a lockstep round solves as one vectorized call; a
# round with fewer pending solves runs them through ``solve_interval``.
_MIN_GRID_LANES = 6


def run_lockstep(runs):
    """Drive many step generators together; returns their results.

    ``runs`` are ``(machine, steps)`` pairs, ``steps`` a generator of
    that machine's (:meth:`Machine._steps`, or one delegating to it).
    A run is dropped as it finishes, so given as an iterator the roster
    holds only its live runs' machines and memos. Every round gathers
    what each pending run yielded, solves it, and sends each run its
    solution. A run whose first request is a pair the grid models is a
    lane of one :class:`~repro.sim.gridsolve.IntervalGrid`, and the
    round's lane requests are one vectorized solve; every other request
    is solved by ``solve_interval`` on its machine. Either way a run
    receives exactly what :meth:`Machine.solve_steps` would give it, so
    each result equals its own ``solve_steps`` run bit for bit. So do
    the memo counts of a machine that runs only one of the runs; runs
    that share a machine share its memo, and a lookup that a
    sequential walk would have answered from an earlier run's solve may
    then miss.
    """
    from repro.sim.gridsolve import IntervalGrid

    runs = list(runs)
    results = [None] * len(runs)
    pending = {}
    for i, (_, steps) in enumerate(runs):
        try:
            pending[i] = next(steps)
        except StopIteration as stop:
            results[i] = stop.value
    tuning = next(
        (runs[i][0].tuning for i in pending if len(pending[i]) == 2), None
    )
    lanes = {}  # run -> its lane of the grid
    for i, states in pending.items():
        if IntervalGrid.accepts(runs[i][0], states, tuning):
            lanes[i] = len(lanes)
    if lanes:
        grid = IntervalGrid([(runs[i][0], pending[i]) for i in lanes], tuning)
    while pending:
        solutions = {}
        gridded = [
            (i, lanes[i]) for i, states in pending.items()
            if i in lanes and grid.covers(lanes[i], runs[i][0], states)
        ]
        if len(gridded) >= _MIN_GRID_LANES:
            solved = grid.solve([lane for _, lane in gridded])
            solutions = {i: sol for (i, _), sol in zip(gridded, solved)}
        for i, states in pending.items():
            if i not in solutions:
                solutions[i] = runs[i][0]._solve(states)
        for i, solution in solutions.items():
            try:
                pending[i] = runs[i][1].send(solution)
            except StopIteration as stop:
                del pending[i]
                results[i] = stop.value
                runs[i] = None  # frees its machine and memo
    return results


def _meter(domain, reader, joules):
    """Deposit ``joules`` into a RAPL domain and poll its reader, in
    pieces of at most ``_POLL_J`` so that no counter wrap is lost."""
    while joules > _POLL_J:
        domain.deposit(_POLL_J)
        reader.update()
        joules -= _POLL_J
    domain.deposit(joules)
    reader.update()


@dataclass
class _Outcome:
    results: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    socket_energy_j: float = 0.0
    wall_energy_j: float = 0.0
    pp0_energy_j: float = 0.0
    timeline: list = field(default_factory=list)
