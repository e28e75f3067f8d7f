"""The dynamic cache-partitioning controller — the paper's Algorithm 6.2.

When the foreground application starts or changes phase, the controller
gives it as much cache as possible (11 of 12 ways — the background always
keeps at least one). It then shrinks the foreground's allocation one way
per 100 ms control period while MPKI stays flat (relative change below
THR3 = 0.05), down to a 1 MB floor. The first shrink that *does* move
MPKI is undone and the search stops until the next phase change. The
background application(s) always receive the complement of the
foreground's ways, so capacity the foreground doesn't need turns into
background throughput (Fig. 13).
"""

from dataclasses import dataclass

from repro.cache.llc import WayMask
from repro.core.phase import PhaseDetector
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class ControllerAction:
    """One reallocation decision, kept for the audit trail."""

    time_s: float
    fg_ways: int
    reason: str
    mpki: float


def mpki_window(misses, accesses):
    """Misses per kilo-access over one measurement window.

    The trace engine has no instruction counts, so accesses stand in
    for (kilo-)instructions — a fixed rescaling that leaves every
    relative-change test in the controller and the phase detector
    unchanged. Integer inputs make the result reproducible to the bit
    across replay backends.
    """
    return 1000.0 * misses / accesses if accesses else 0.0


def mpki_windows(misses, accesses):
    """Vectorized :func:`mpki_window` over banked counter deltas.

    ``misses`` and ``accesses`` are integer arrays (any matching shape —
    the batched dynamic roster passes ``(cells, domains)`` banks); the
    result is float64 with zeros where a window saw no accesses. Counter
    deltas are far below 2**53, so the int->float conversion is exact
    and each element is bit-identical to the scalar
    ``mpki_window(misses[i], accesses[i])``.
    """
    import numpy as np

    m = np.asarray(misses, dtype=np.float64)
    a = np.asarray(accesses, dtype=np.float64)
    out = np.zeros(np.broadcast(m, a).shape, dtype=np.float64)
    np.divide(1000.0 * m, a, out=out, where=a != 0.0)
    return out


class DynamicPartitionController:
    """Algorithm 6.2, driving fg/bg way masks from foreground MPKI."""

    def __init__(
        self,
        fg_name,
        bg_name,
        llc_ways=12,
        way_mb=0.5,
        min_fg_mb=1.0,
        thr3=0.05,
        period_s=0.1,
        detector=None,
        resctrl=None,
        comparison="baseline",
    ):
        """``bg_name`` may be a single name or a sequence of peer names —
        multiple background applications share one partition and contend
        for capacity within it (Section 6.3).

        ``comparison`` selects the shrink test:

        - ``"baseline"`` (default): compare against the MPKI at the start
          of the shrink sequence — bounds cumulative degradation at THR3.
        - ``"per-step"``: the paper's literal pseudocode — compare against
          the previous sample only. On the prototype, stale data in
          deallocated ways masked per-step effects; in a model with
          immediate capacity effects this variant drifts (each step is
          under THR3 while the total is not), which the ablation bench
          demonstrates.
        """
        if comparison not in ("baseline", "per-step"):
            raise ValidationError(f"unknown comparison mode {comparison!r}")
        self.comparison = comparison
        if llc_ways < 2:
            raise ValidationError("need at least two ways to partition")
        self.fg_name = fg_name
        if isinstance(bg_name, str):
            self.bg_names = (bg_name,)
        else:
            self.bg_names = tuple(bg_name)
            if not self.bg_names:
                raise ValidationError("need at least one background peer")
        self.bg_name = self.bg_names[0]
        self.llc_ways = llc_ways
        self.min_fg_ways = max(1, round(min_fg_mb / way_mb))
        self.max_fg_ways = llc_ways - 1  # the background keeps one way
        if self.min_fg_ways > self.max_fg_ways:
            raise ValidationError("floor exceeds the maximum allocation")
        self.thr3 = thr3
        self.period_s = period_s
        self.detector = detector or PhaseDetector()
        self.resctrl = resctrl
        self.fg_ways = self.max_fg_ways
        self.phase_starts = 1  # application start counts as a phase start
        self.last_mpki = None
        # MPKI at the start of the current shrink sequence. Shrinking is
        # allowed while MPKI stays within THR3 of this baseline — the
        # cumulative form of the paper's test. (On the prototype, data
        # left in deallocated ways hid per-step effects and a later
        # "phase change" restored capacity; a model with immediate
        # capacity effects needs the cumulative bound to get the same
        # outcome without that detour.)
        self.baseline_mpki = None
        self.actions = []
        self._since_last_decision = 0.0
        # Whether the last ``on_tick`` returned no mask, published no
        # resctrl occupancy and left every field of the control state
        # (``_state``) as it found it. Fed the same sample and period
        # again, such a tick repeats itself exactly, which is what lets
        # the engine run a held stretch of ticks without calling back
        # (``Machine._steps``).
        self.quiet = False

    # -- the control loop ---------------------------------------------------

    def on_tick(self, now_s, dt_s, metrics):
        """Engine hook: consume metrics, possibly return new masks."""
        before = self._state()
        masks = self._tick(now_s, dt_s, metrics)
        self.quiet = (
            masks is None and self.resctrl is None and self._state() == before
        )
        return masks

    def _state(self):
        """Every field a tick may write. (``now_s`` only stamps actions,
        and a quiet tick records none.)"""
        detector = self.detector
        return (
            self._since_last_decision, self.fg_ways, self.phase_starts,
            self.last_mpki, self.baseline_mpki,
            detector.avg_mpki, detector.new_phase,
        )

    def _tick(self, now_s, dt_s, metrics):
        self._since_last_decision += dt_s
        if self._since_last_decision + 1e-9 < self.period_s:
            return None
        self._since_last_decision = 0.0
        if self.fg_name not in metrics:
            return None
        self._publish_occupancy(metrics)
        return self.decide(now_s, metrics[self.fg_name]["mpki"])

    def _publish_occupancy(self, metrics):
        """Refresh resctrl mon_data (llc_occupancy) from engine metrics."""
        if self.resctrl is None:
            return
        mb = 1 << 20
        readings = {}
        fg = metrics.get(self.fg_name, {})
        if "occupancy_mb" in fg:
            readings["fg"] = int(fg["occupancy_mb"] * mb)
        bg_total = sum(
            metrics[name]["occupancy_mb"]
            for name in self.bg_names
            if name in metrics and "occupancy_mb" in metrics[name]
        )
        if bg_total:
            readings["bg"] = int(bg_total * mb)
        if readings:
            self.resctrl.update_occupancy(readings)

    def decide(self, now_s, mpki):
        """One Algorithm 6.2 decision from a foreground MPKI sample."""
        detected = self.detector.update(mpki)
        changed = False
        if detected == 2:
            self.phase_starts = 1
            self.baseline_mpki = None  # re-measure after the expansion
            if self.fg_ways != self.max_fg_ways:
                self.fg_ways = self.max_fg_ways
                changed = True
                self._record(now_s, "phase-start: expand to max", mpki)
        elif detected == 0 and self.phase_starts == 1:
            if self.last_mpki is None:
                # First settled sample after a reallocation: take it as
                # the comparison point, decide on the next one.
                if self.baseline_mpki is None:
                    self.baseline_mpki = mpki
            elif self._stable(mpki):
                if self.fg_ways > self.min_fg_ways:
                    self.fg_ways -= 1
                    changed = True
                    self._record(now_s, "stable MPKI: shrink", mpki)
                else:
                    self.phase_starts = 0  # hold the 1 MB floor
            else:
                if self.fg_ways < self.max_fg_ways:
                    self.fg_ways += 1
                    changed = True
                    self._record(now_s, "MPKI rose: give back one way", mpki)
                self.phase_starts = 0
        self.last_mpki = mpki
        if not changed:
            return None
        # The reallocation itself moves MPKI: rebase the detector and
        # drop the last sample so the next comparison is settled-vs-
        # settled rather than across our own change.
        self.detector.rebase()
        self.last_mpki = None
        masks = self.masks()
        if self.resctrl is not None:
            self.resctrl.group("fg").set_mask(masks[self.fg_name])
            self.resctrl.group("bg").set_mask(masks[self.bg_name])
        return masks

    def _stable(self, mpki):
        if self.comparison == "per-step" or self.baseline_mpki is None:
            reference = self.last_mpki
        else:
            reference = self.baseline_mpki
        scale = max(abs(reference), 1e-9)
        return (mpki - reference) / scale < self.thr3

    def masks(self):
        """Current way masks: fg's allocation, the complement for every
        background peer (peers share one partition)."""
        fg_mask = WayMask.contiguous(self.fg_ways, 0, self.llc_ways)
        bg_mask = WayMask.contiguous(
            self.llc_ways - self.fg_ways, self.fg_ways, self.llc_ways
        )
        out = {self.fg_name: fg_mask}
        for name in self.bg_names:
            out[name] = bg_mask
        return out

    def _record(self, now_s, reason, mpki):
        self.actions.append(
            ControllerAction(time_s=now_s, fg_ways=self.fg_ways, reason=reason, mpki=mpki)
        )

    @property
    def fg_mb(self):
        return self.fg_ways * 0.5
