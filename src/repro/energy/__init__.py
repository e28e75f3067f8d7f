"""Energy measurement: the power model, RAPL counters, and the wall meter.

Reproduces the paper's three instruments (Section 2.2): on-chip RAPL
counters for socket and core+cache power at 1/2^16 J resolution and ~1 ms
update granularity, and a FitPC wall-socket multimeter.
"""

from repro.energy.model import PowerBreakdown, PowerModel
from repro.energy.rapl import RAPL_ENERGY_UNIT_J, RaplCounter, RaplDomain
from repro.energy.wall import WallMeter

__all__ = [
    "PowerBreakdown",
    "PowerModel",
    "RAPL_ENERGY_UNIT_J",
    "RaplCounter",
    "RaplDomain",
    "WallMeter",
]
