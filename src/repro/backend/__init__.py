"""Interchangeable simulation substrates behind one protocol.

The policies of Section 5 and the Algorithm 6.2 controller are written
once, in :mod:`repro.core.policies`, against :class:`SimBackend`; this
package supplies the two implementations:

- :class:`AnalyticalBackend` — the statistical interval engine
  (``Machine.run_pair``), bit-identical to the pre-refactor policy code;
- :class:`TraceBackend` — address-level trace replay (one-cell
  ``run_packed_roster`` / ``run_dynamic_roster`` calls over compiled
  packs), with a pair's biased-split sweep replayed at every split in
  one roster call.

``get_backend(name)`` maps the CLI's ``--backend`` flag to a fresh
instance.
"""

from repro.backend.analytical import AnalyticalBackend
from repro.backend.protocol import (
    MAX_TENANTS,
    BackendCapabilities,
    GroupMeasurement,
    GroupSplit,
    SimBackend,
    SoloMeasurement,
    TenantSet,
    WayUtility,
)
from repro.backend.trace import TraceBackend
from repro.util.errors import ValidationError

BACKEND_NAMES = ("analytical", "trace")


def get_backend(name, **kwargs):
    """A fresh backend by CLI name ('analytical' | 'trace')."""
    if name == "analytical":
        return AnalyticalBackend(**kwargs)
    if name == "trace":
        return TraceBackend(**kwargs)
    raise ValidationError(
        f"unknown backend {name!r}; pick one of {BACKEND_NAMES}"
    )


__all__ = [
    "AnalyticalBackend",
    "BACKEND_NAMES",
    "BackendCapabilities",
    "GroupMeasurement",
    "GroupSplit",
    "MAX_TENANTS",
    "SimBackend",
    "SoloMeasurement",
    "TenantSet",
    "TraceBackend",
    "WayUtility",
    "get_backend",
]
