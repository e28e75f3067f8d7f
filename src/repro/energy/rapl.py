"""Running Average Power Limit (RAPL) counter emulation.

The paper reads socket ("package") and core+cache ("PP0") energy through
RAPL MSRs (Section 2.2). Real counters accumulate in units of 1/2^16 J in
a 32-bit register that wraps; consumers read deltas and handle wraparound.
We reproduce that interface so measurement code is written the same way it
would be against hardware.
"""

from repro.util.errors import ValidationError
from repro.util.floats import repeat_add

RAPL_ENERGY_UNIT_J = 1.0 / (1 << 16)
_COUNTER_BITS = 32
_COUNTER_WRAP = 1 << _COUNTER_BITS
RAPL_WRAP_J = _COUNTER_WRAP * RAPL_ENERGY_UNIT_J  # 65,536 J per wrap


class RaplDomain:
    """One RAPL energy domain (PKG or PP0) with a wrapping raw counter."""

    def __init__(self, name):
        self.name = name
        self._raw_accumulated = 0.0  # exact joules, internal only

    def deposit(self, joules, times=1):
        """Accumulate energy (called by the simulation engine): ``times``
        in-order additions of ``joules``, as that many calls would make."""
        if joules < 0:
            raise ValidationError("energy cannot decrease")
        self._raw_accumulated = repeat_add(self._raw_accumulated, joules, times)

    def read_raw(self):
        """The 32-bit wrapped counter value in RAPL units."""
        units = int(self._raw_accumulated / RAPL_ENERGY_UNIT_J)
        return units % _COUNTER_WRAP


class RaplCounter:
    """Reader that turns raw wrapped counters into monotonic joules.

    Mirrors the read-delta-and-unwrap discipline of RAPL consumers: as
    long as reads happen more often than the wrap period, totals are
    exact.
    """

    def __init__(self, domain):
        self.domain = domain
        self._last_raw = domain.read_raw()
        self._total_units = 0

    def update(self):
        """Poll the hardware counter; call at least once per wrap period."""
        raw = self.domain.read_raw()
        delta = (raw - self._last_raw) % _COUNTER_WRAP
        self._total_units += delta
        self._last_raw = raw
        return self.energy_j

    @property
    def energy_j(self):
        return self._total_units * RAPL_ENERGY_UNIT_J
