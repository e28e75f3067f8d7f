"""Wall-socket power meter emulation (the paper's FitPC multimeter).

Integrates whole-system power, like the external meter the paper
correlates against RAPL (Section 2.2). The simulation engine feeds it
instantaneous wall power; it reports the energy and average power.
"""

from repro.util.errors import ValidationError
from repro.util.floats import repeat_add


class WallMeter:
    """Integrates wall power continuously."""

    def __init__(self):
        self._energy_j = 0.0
        self._now_s = 0.0

    def advance(self, dt_s, power_w, times=1):
        """Account ``power_w`` over the next ``dt_s`` seconds, ``times``
        over: the same additions as that many calls."""
        if dt_s < 0 or power_w < 0:
            raise ValidationError("time and power must be non-negative")
        self._energy_j = repeat_add(self._energy_j, power_w * dt_s, times)
        self._now_s = repeat_add(self._now_s, dt_s, times)

    @property
    def energy_j(self):
        return self._energy_j

    @property
    def elapsed_s(self):
        return self._now_s

    def average_power_w(self):
        return self._energy_j / self._now_s if self._now_s else 0.0
