"""Application behaviour models.

An :class:`ApplicationModel` captures everything the interval engine needs
to execute an application: how it scales with threads, how its LLC miss
ratio responds to capacity, how intensely it accesses the LLC, how much
the prefetchers help it, and how its behaviour changes across phases.
"""

import math
from dataclasses import dataclass, field

from repro.util.errors import ValidationError

# ``phase_index_at`` clamps progress to this before comparing it with
# the cumulative phase weights; ``phase_window`` follows the same clamp.
_LAST_PROGRESS = 1.0 - 1e-12

MAX_LLC_MB = 6.0
MIN_LLC_MB = 0.5


def _is_power_of_two(n):
    return n > 0 and not n & (n - 1)


class ScalabilityModel:
    """Thread-scalability curve: Amdahl's law over SMT-aware parallelism.

    Threads fill both hyperthreads of a core before the next core
    (Section 3.1), so ``T`` threads provide ``(T // 2) * smt_gain + T % 2``
    single-thread equivalents of hardware parallelism. A serial fraction
    and a per-thread synchronization overhead shape the curve;
    ``saturation_threads`` models DaCapo-style plateaus (GC bottlenecks).

    Bandwidth-bound saturation is *not* modelled here — the engine's
    bandwidth model imposes it dynamically, which is why the in-house
    parallel apps are declared scalable but measure flat (Section 3.1).
    """

    def __init__(
        self,
        parallel_fraction=1.0,
        smt_gain=1.3,
        sync_overhead=0.0,
        saturation_threads=8,
        single_threaded=False,
        pow2_only=False,
    ):
        if not 0.0 <= parallel_fraction <= 1.0:
            raise ValidationError("parallel_fraction must be in [0, 1]")
        if smt_gain < 1.0 or smt_gain > 2.0:
            raise ValidationError("smt_gain must be in [1, 2]")
        if sync_overhead < 0:
            raise ValidationError("sync_overhead cannot be negative")
        self.parallel_fraction = parallel_fraction
        self.smt_gain = smt_gain
        self.sync_overhead = sync_overhead
        self.saturation_threads = saturation_threads
        self.single_threaded = single_threaded
        self.pow2_only = pow2_only

    def validate_threads(self, threads):
        if threads < 1:
            raise ValidationError("need at least one thread")
        if self.pow2_only and not _is_power_of_two(threads):
            raise ValidationError(
                "this application only runs with a power-of-2 thread count"
            )

    def hardware_parallelism(self, threads):
        """Single-thread equivalents provided by ``threads`` hyperthreads."""
        self.validate_threads(threads)
        t = min(threads, self.saturation_threads)
        return (t // 2) * self.smt_gain + (t % 2)

    def speedup(self, threads):
        """Ideal (bandwidth-unconstrained) speedup over one thread."""
        self.validate_threads(threads)
        if self.single_threaded:
            return 1.0
        h = self.hardware_parallelism(threads)
        serial = 1.0 - self.parallel_fraction
        amdahl = 1.0 / (serial + self.parallel_fraction / h)
        overhead = max(0.05, 1.0 - self.sync_overhead * (threads - 1))
        return max(1.0, amdahl * overhead) if threads > 1 else 1.0


class MissRatioCurve:
    """A smooth LLC miss-ratio curve: ``floor + sum(a_k * exp(-c / s_k))``.

    Section 3.2 emphasizes the real machine shows *no knees* — index
    hashing, prefetchers and pseudo-LRU smooth the curve — so we use sums
    of exponentials rather than step functions. Holding exactly one way
    (the pathological 0.5 MB direct-mapped case) adds a conflict-miss
    penalty on top.
    """

    def __init__(self, floor, components, direct_mapped_penalty=0.25):
        if floor < 0 or floor > 1:
            raise ValidationError("floor must be a ratio in [0, 1]")
        for amp, scale in components:
            if amp < 0 or scale <= 0:
                raise ValidationError("components need amp >= 0 and scale > 0")
        self.floor = floor
        self.components = tuple((float(a), float(s)) for a, s in components)
        self.direct_mapped_penalty = direct_mapped_penalty
        # (epsilon, ws_mult, amp_mult) -> working_set_mb; a curve is never
        # changed after construction.
        self._working_sets = {}

    def value(self, capacity_mb, ways=None, ws_mult=1.0, amp_mult=1.0):
        """Miss ratio of LLC accesses at ``capacity_mb`` of usable LLC."""
        if capacity_mb <= 0:
            return 1.0
        mr = self.floor
        for amp, scale in self.components:
            mr += amp * amp_mult * math.exp(-capacity_mb / (scale * ws_mult))
        if ways == 1:
            mr += self.direct_mapped_penalty
        return min(mr, 1.0)

    def span(self, ws_mult=1.0, amp_mult=1.0):
        """Miss-ratio drop from 0.5 MB to the full 6 MB."""
        lo = self.value(MAX_LLC_MB, ws_mult=ws_mult, amp_mult=amp_mult)
        hi = self.value(MIN_LLC_MB, ws_mult=ws_mult, amp_mult=amp_mult)
        return hi - lo

    def working_set_mb(self, epsilon=0.02, ws_mult=1.0, amp_mult=1.0):
        """Smallest capacity within ``epsilon`` of the 6 MB miss ratio.

        Used by the occupancy model to cap how much shared cache an
        application will actually hold on to. The scan runs once per
        ``(epsilon, ws_mult, amp_mult)``; later calls read its result.
        """
        key = (epsilon, ws_mult, amp_mult)
        found = self._working_sets.get(key)
        if found is None:
            found = self._working_sets[key] = self._scan_working_set(*key)
        return found

    def _scan_working_set(self, epsilon, ws_mult, amp_mult):
        """:meth:`working_set_mb` by its 0.125 MB capacity scan."""
        target = self.value(MAX_LLC_MB, ws_mult=ws_mult, amp_mult=amp_mult)
        span = self.span(ws_mult=ws_mult, amp_mult=amp_mult)
        if span <= 1e-9:
            return MIN_LLC_MB
        threshold = target + epsilon * span
        capacity = MIN_LLC_MB
        while capacity < MAX_LLC_MB:
            if self.value(capacity, ws_mult=ws_mult, amp_mult=amp_mult) <= threshold:
                return capacity
            capacity += 0.125
        return MAX_LLC_MB


@dataclass(frozen=True)
class Phase:
    """One execution phase: a fraction of the instruction stream with
    modified access intensity and miss-ratio-curve shape."""

    weight: float
    apki_mult: float = 1.0
    ws_mult: float = 1.0
    amp_mult: float = 1.0
    name: str = ""

    def __post_init__(self):
        if self.weight <= 0:
            raise ValidationError("phase weight must be positive")


@dataclass
class ApplicationModel:
    """Everything the engine needs to run one application.

    The ``expected_*`` fields record the paper's published classification
    (Tables 1 and 2) and are enforced by golden tests — they are metadata,
    not inputs to the engine.
    """

    name: str
    suite: str
    scalability: ScalabilityModel
    mrc: MissRatioCurve
    llc_apki: float
    base_cpi: float
    mlp: float
    instructions: float
    pf_coverage: float = 0.0
    pf_pollution: float = 0.0
    wb_fraction: float = 0.3
    dram_efficiency: float = 0.8
    # How hard the app competes for shared LLC capacity. Non-temporal
    # streamers (stream_uncached) insert at LRU and barely pollute: ~0.
    cache_pressure: float = 1.0
    phases: tuple = ()
    expected_scalability_class: str = ""
    expected_llc_class: str = ""
    bandwidth_sensitive: bool = False
    notes: str = ""

    def __post_init__(self):
        if self.llc_apki < 0 or self.base_cpi <= 0 or self.mlp < 1:
            raise ValidationError(f"{self.name}: invalid intensity parameters")
        if self.instructions <= 0:
            raise ValidationError(f"{self.name}: needs a positive instruction count")
        if not 0.0 <= self.pf_coverage <= 1.0:
            raise ValidationError(f"{self.name}: pf_coverage must be in [0, 1]")
        if not 0.0 < self.dram_efficiency <= 1.0:
            raise ValidationError(f"{self.name}: dram_efficiency must be in (0, 1]")
        if self.cache_pressure < 0:
            raise ValidationError(f"{self.name}: cache_pressure cannot be negative")
        if not self.phases:
            self.phases = (Phase(weight=1.0, name="steady"),)
        total = sum(p.weight for p in self.phases)
        self.phases = tuple(
            Phase(
                weight=p.weight / total,
                apki_mult=p.apki_mult,
                ws_mult=p.ws_mult,
                amp_mult=p.amp_mult,
                name=p.name or f"phase{i}",
            )
            for i, p in enumerate(self.phases)
        )

    # -- phase navigation ---------------------------------------------------

    def phase_at(self, progress):
        """The phase active at ``progress`` (fraction of instructions)."""
        return self.phases[self.phase_index_at(progress)]

    def phase_index_at(self, progress):
        """Index of the phase active at ``progress`` (memo-key friendly)."""
        if progress < 0:
            raise ValidationError("progress cannot be negative")
        if len(self.phases) == 1:
            return 0
        progress = min(progress, _LAST_PROGRESS)
        cumulative = 0.0
        for index, phase in enumerate(self.phases):
            cumulative += phase.weight
            if progress < cumulative:
                return index
        return len(self.phases) - 1

    def phase_window(self, progress):
        """The ``[lo, hi)`` progress range over which ``phase_index_at``
        returns what it returns at ``progress``.

        The bounds are the same cumulative weight sums ``phase_index_at``
        compares against; a bound past the progress clamp is unreachable,
        so it opens to infinity.
        """
        if len(self.phases) == 1:
            return 0.0, float("inf")
        index = self.phase_index_at(progress)
        lo = 0.0
        for phase in self.phases[:index]:
            lo += phase.weight
        hi = lo + self.phases[index].weight
        if index == len(self.phases) - 1 or hi > _LAST_PROGRESS:
            hi = float("inf")
        return lo, hi

    def phase_boundaries(self):
        """Cumulative instruction fractions at which phases end."""
        out, cumulative = [], 0.0
        for phase in self.phases:
            cumulative += phase.weight
            out.append(cumulative)
        out[-1] = 1.0
        return out

    # -- behaviour queries -----------------------------------------------------

    def speedup(self, threads):
        return self.scalability.speedup(threads)

    def apki(self, phase=None, threads=1):
        """LLC accesses per kilo-instruction.

        More threads mean more aggregate private cache and more overlap,
        which filters LLC traffic slightly (Section 3.2's observation that
        thread count reduces LLC sensitivity).
        """
        phase = phase or self.phases[0]
        if self.scalability.single_threaded:
            threads = 1  # extra hyperthreads add no private cache in use
        cores = (threads + 1) // 2
        private_filter = 1.0 / (1.0 + 0.08 * (cores - 1))
        return self.llc_apki * phase.apki_mult * private_filter

    def miss_ratio(self, capacity_mb, ways=None, phase=None):
        phase = phase or self.phases[0]
        return self.mrc.value(
            capacity_mb, ways=ways, ws_mult=phase.ws_mult, amp_mult=phase.amp_mult
        )

    def mpki(self, capacity_mb, ways=None, phase=None, threads=1):
        return self.apki(phase, threads) * self.miss_ratio(capacity_mb, ways, phase)

    def working_set_mb(self, phase=None, epsilon=0.02):
        phase = phase or self.phases[0]
        return self.mrc.working_set_mb(
            epsilon=epsilon, ws_mult=phase.ws_mult, amp_mult=phase.amp_mult
        )

    def has_phases(self):
        return len(self.phases) > 1
