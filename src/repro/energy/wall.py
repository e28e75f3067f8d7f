"""Wall-socket power meter emulation (the paper's FitPC multimeter).

Samples whole-system power at 1-second granularity with timestamps, like
the external meter the paper correlates against RAPL (Section 2.2, with
"less than one second of delay"). The simulation engine feeds it
instantaneous wall power; it integrates and exposes the sample log.
"""

from dataclasses import dataclass

from repro.util.errors import ValidationError


@dataclass(frozen=True)
class WallSample:
    timestamp_s: float
    power_w: float


class WallMeter:
    """Integrates wall power continuously, logging 1 Hz samples."""

    def __init__(self, sample_period_s=1.0):
        if sample_period_s <= 0:
            raise ValidationError("sample period must be positive")
        self.sample_period_s = sample_period_s
        self.samples = []
        self._energy_j = 0.0
        self._now_s = 0.0
        self._next_sample_s = sample_period_s
        self._last_power_w = 0.0

    def advance(self, dt_s, power_w, times=1):
        """Account ``power_w`` over the next ``dt_s`` seconds, ``times``
        over: the same additions and samples as that many calls."""
        if dt_s < 0 or power_w < 0:
            raise ValidationError("time and power must be non-negative")
        joules = power_w * dt_s
        energy, now, next_sample = self._energy_j, self._now_s, self._next_sample_s
        for _ in range(times):
            energy += joules
            now += dt_s
            while next_sample <= now:
                self.samples.append(
                    WallSample(timestamp_s=next_sample, power_w=power_w)
                )
                next_sample += self.sample_period_s
        self._energy_j, self._now_s, self._next_sample_s = energy, now, next_sample
        self._last_power_w = power_w

    @property
    def energy_j(self):
        return self._energy_j

    @property
    def elapsed_s(self):
        return self._now_s

    def average_power_w(self):
        return self._energy_j / self._now_s if self._now_s else 0.0
