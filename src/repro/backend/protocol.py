"""The simulation-backend protocol the policy layer is written against.

The paper's contribution is its *policies* — shared, fair, biased, and
the dynamic controller — not the substrate they run on. LFOC makes the
same point for fairness policies over commodity partitioning mechanisms,
and Nejat et al. coordinate partitioning with other knobs precisely
because the policy logic is decoupled from the mechanism. This module
pins that separation down as a small protocol, one type per concept:

- :class:`TenantSet` — the workloads of one co-run, tenant 0 first (the
  latency-sensitive foreground). A foreground/background pair is the
  2-tenant set, as in the paper's Section 6.3 and in LFOC;
- :class:`GroupSplit` — a backend-neutral LLC allocation, one way mask
  per tenant. The pair shapes (``shared``, ``fair``, ``disjoint`` and
  ``pair``: the foreground's ways from way 0 up, the background's from
  the top down, overlapping when they exceed the cache) are
  constructors;
- :class:`GroupMeasurement` — the result shape every policy consumes:
  per-tenant costs (lower is better) and progress rates (higher is
  better), read as a foreground cost and a background rate through its
  ``fg_*``/``bg_*`` properties, with the backend's native result
  attached as ``raw``;
- :class:`SimBackend` — ``solo``, ``co_run(tenants, split)``,
  ``sweep``, ``dynamic(tenants, controller)``, ``way_utility`` and
  ``capabilities``.

:mod:`repro.core.policies` implements shared/fair/biased/dynamic/cluster
once against this protocol; :mod:`repro.backend.analytical` and
:mod:`repro.backend.trace` supply the two substrates (the interval
engine and the address-level trace engine).
"""

from dataclasses import dataclass, field
from functools import cached_property

from repro.util.errors import ValidationError

# The native replay kernels bank counters for up to 16 partition
# domains per cell; the protocol inherits that ceiling.
MAX_TENANTS = 16


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, and how its measurements read.

    ``fg_cost_unit`` / ``bg_rate_unit`` label the measurement axes
    (seconds and instructions/s for the analytical engine; cycles/access
    and accesses/kilocycle for the trace engine). On both engines every
    ``sweep()`` entry is a full co-run measurement, so the biased policy
    returns its winner as measured.
    """

    name: str
    llc_ways: int
    fg_cost_unit: str
    bg_rate_unit: str
    supports_dynamic: bool = True


@dataclass
class SoloMeasurement:
    """One workload alone on the whole cache."""

    backend: str
    name: str
    cost: float  # same unit as GroupMeasurement.fg_cost
    raw: object = None


@dataclass(frozen=True)
class GroupSplit:
    """An LLC allocation: one way mask per tenant.

    ``mask_bits[i]`` is tenant *i*'s way mask as an integer bit pattern
    over ``llc_ways`` ways (bit 0 = way 0). Masks are arbitrary —
    tenants may share a mask (a cluster), overlap partially, or own
    disjoint contiguous regions. A pair's splits (:meth:`pair` and the
    constructors built on it) put the foreground's ways at the bottom
    and the background's at the top; :meth:`pair_ways` recognizes that
    shape.
    """

    mask_bits: tuple
    llc_ways: int = 12

    def __post_init__(self):
        object.__setattr__(self, "mask_bits", tuple(int(b) for b in self.mask_bits))
        n = len(self.mask_bits)
        if not 1 <= n <= MAX_TENANTS:
            raise ValidationError(
                f"a group split needs 1..{MAX_TENANTS} tenants, got {n}"
            )
        if self.llc_ways < 1:
            raise ValidationError("the cache needs at least one way")
        full = (1 << self.llc_ways) - 1
        for i, bits in enumerate(self.mask_bits):
            if bits <= 0:
                raise ValidationError(f"tenant {i} has an empty way mask")
            if bits & ~full:
                raise ValidationError(
                    f"tenant {i} mask {bits:#x} exceeds {self.llc_ways} ways"
                )

    @classmethod
    def shared(cls, tenants, llc_ways):
        """Every tenant sees the whole cache (no partitioning)."""
        full = (1 << llc_ways) - 1
        return cls(tuple(full for _ in range(tenants)), llc_ways)

    @classmethod
    def fair(cls, tenants, llc_ways):
        """Contiguous even apportioning. A pair gives the foreground
        ``llc_ways // 2`` and the background the rest; larger groups
        give the remainder to the earliest tenants."""
        if tenants == 2:
            half = llc_ways // 2
            return cls.pair(half, llc_ways - half, llc_ways)
        base, extra = divmod(llc_ways, tenants)
        if base < 1:
            raise ValidationError(
                f"cannot fairly split {llc_ways} ways across {tenants} tenants"
            )
        counts = [base + (1 if i < extra else 0) for i in range(tenants)]
        return cls.from_way_counts(counts, llc_ways)

    @classmethod
    def pair(cls, fg_ways, bg_ways, llc_ways):
        """A pair's split: the foreground takes the first ``fg_ways``
        ways, the background the last ``bg_ways`` (overlapping when the
        two exceed the cache)."""
        for ways in (fg_ways, bg_ways):
            if not 1 <= ways <= llc_ways:
                raise ValidationError(
                    f"pair ways {fg_ways}/{bg_ways} do not fit the "
                    f"{llc_ways}-way cache"
                )
        fg = (1 << fg_ways) - 1
        bg = ((1 << bg_ways) - 1) << (llc_ways - bg_ways)
        return cls((fg, bg), llc_ways)

    @classmethod
    def disjoint(cls, fg_ways, llc_ways):
        """A pair's split with the background on the complement."""
        return cls.pair(fg_ways, llc_ways - fg_ways, llc_ways)

    @classmethod
    def from_way_counts(cls, counts, llc_ways):
        """Pack disjoint contiguous regions bottom-up from way 0."""
        counts = [int(c) for c in counts]
        if sum(counts) > llc_ways:
            raise ValidationError(
                f"way counts {counts} exceed the {llc_ways}-way cache"
            )
        bits, offset = [], 0
        for count in counts:
            if count < 1:
                raise ValidationError("every tenant needs at least one way")
            bits.append(((1 << count) - 1) << offset)
            offset += count
        return cls(tuple(bits), llc_ways)

    @property
    def tenants(self):
        return len(self.mask_bits)

    @cached_property
    def way_counts(self):
        return tuple(bin(bits).count("1") for bits in self.mask_bits)

    def pair_ways(self):
        """``(fg_ways, bg_ways)`` when this is a 2-tenant split of the
        :meth:`pair` shape, else ``None``."""
        if len(self.mask_bits) != 2:
            return None
        fg_ways, bg_ways = self.way_counts
        if self != GroupSplit.pair(fg_ways, bg_ways, self.llc_ways):
            return None
        return fg_ways, bg_ways


@dataclass
class TenantSet:
    """The workloads of one co-run, in backend-native terms.

    ``tenants`` are whatever the backend runs (application models or
    :class:`~repro.sim.trace_engine.TraceWorkload` instances), in
    priority order: tenant 0 is the primary (the latency-sensitive
    foreground), the rest are its peers; a pair is the 2-tenant set.
    ``names`` may be given explicitly to alias duplicate workloads; it
    defaults to each tenant's own ``name``. ``options`` carries
    backend-specific run options (e.g. ``bg_continuous`` or
    ``timeline`` for the interval engine).
    """

    tenants: list
    options: dict = field(default_factory=dict)
    names: tuple = None

    def __post_init__(self):
        self.tenants = list(self.tenants)
        n = len(self.tenants)
        if not 2 <= n <= MAX_TENANTS:
            raise ValidationError(
                f"a tenant set needs 2..{MAX_TENANTS} tenants, got {n}"
            )
        if self.names is None:
            self.names = tuple(t.name for t in self.tenants)
        else:
            self.names = tuple(str(name) for name in self.names)
        if len(self.names) != n:
            raise ValidationError(
                f"{n} tenants but {len(self.names)} names"
            )
        if len(set(self.names)) != n:
            raise ValidationError(
                f"tenant names must be unique, got {list(self.names)}"
            )

    @property
    def primary(self):
        return self.tenants[0]


@dataclass
class GroupMeasurement:
    """The backend-neutral outcome of one co-run.

    ``costs[i]``/``rates[i]`` are tenant *i*'s degradation metric
    (runtime in seconds, or average access latency in cycles; lower is
    better) and progress rate (instructions per second, or accesses per
    kilocycle; higher is better), ``None`` where the substrate did not
    measure that axis for that tenant. ``raw`` is the backend's native
    result (a :class:`~repro.sim.engine.PairResult` or ``GroupResult``,
    or a ``{name: TraceStats}`` dict); ``extra`` holds anything else a
    caller may want (controller actions, reallocation timelines, the
    source of a sweep entry).
    """

    backend: str
    names: tuple
    split: GroupSplit
    costs: tuple
    rates: tuple
    raw: object = None
    extra: dict = field(default_factory=dict)

    @property
    def fg_name(self):
        return self.names[0]

    @property
    def bg_name(self):
        """The background's name; a group's peers joined by "+"."""
        return "+".join(self.names[1:])

    @property
    def fg_cost(self):
        return self.costs[0]

    @property
    def bg_rate(self):
        """The peers' aggregate progress rate."""
        return sum(rate for rate in self.rates[1:] if rate is not None)

    @property
    def fg_ways(self):
        return self.split.way_counts[0]

    @property
    def bg_ways(self):
        """The largest peer allocation (a pair's background ways)."""
        return max(self.split.way_counts[1:])


@dataclass(frozen=True)
class WayUtility:
    """A tenant's way-utility curve: LLC hits at 1..N allocated ways.

    This is the classification signal for LFOC-style clustering — the
    trace backend derives it from the single-pass way profile (an MRC),
    the analytical backend from cached solo runs at each allocation.
    """

    name: str
    hits_by_ways: tuple
    accesses: float

    @property
    def llc_ways(self):
        return len(self.hits_by_ways)

    def hits_at(self, ways):
        if not 1 <= ways <= self.llc_ways:
            raise ValidationError(
                f"ways must be 1..{self.llc_ways}, got {ways}"
            )
        return self.hits_by_ways[ways - 1]

    def misses_at(self, ways):
        return max(0.0, self.accesses - self.hits_at(ways))

    def miss_ratio_at(self, ways):
        if not self.accesses:
            return 0.0
        return self.misses_at(ways) / self.accesses


class SimBackend:
    """The protocol every simulation substrate implements.

    Concrete backends override :meth:`capabilities`, :meth:`solo`,
    :meth:`co_run` and, where they have them, :meth:`dynamic` and
    :meth:`way_utility`; :meth:`sweep` and :meth:`co_run_grid` have
    generic per-split defaults.
    """

    def capabilities(self):
        """Static description of this backend (a BackendCapabilities)."""
        raise NotImplementedError

    def solo(self, workload):
        """Measure one workload alone; returns a SoloMeasurement."""
        raise NotImplementedError

    def co_run(self, tenants, split):
        """Co-run a :class:`TenantSet` under a :class:`GroupSplit`;
        returns a :class:`GroupMeasurement`."""
        raise NotImplementedError

    def disjoint_splits(self):
        """Every disjoint split of a pair, 1 to W - 1 foreground ways."""
        llc_ways = self.capabilities().llc_ways
        return [
            GroupSplit.disjoint(fg_ways, llc_ways)
            for fg_ways in range(1, llc_ways)
        ]

    def sweep(self, tenants):
        """Score every disjoint split of a pair (:meth:`disjoint_splits`).

        Returns ``[(fg_ways, GroupMeasurement)]`` in ascending foreground
        allocation order, each entry a measured co-run. The default
        measures each split with :meth:`co_run`; backends override this
        only to measure the same splits in one batched call (the
        analytical grid solve, the trace engine's one roster replay).
        """
        return [
            (split.way_counts[0], self.co_run(tenants, split))
            for split in self.disjoint_splits()
        ]

    def co_run_grid(self, items):
        """Measure a batch of co-run cells; returns ``[GroupMeasurement]``.

        ``items`` is a sequence of ``(tenants, split)`` pairs. The
        default walks the batch through :meth:`co_run` one cell at a
        time; vectorized backends override this with a single batched
        solve that must return results bit-identical to the sequential
        walk.
        """
        return [self.co_run(tenants, split) for tenants, split in items]

    def dynamic(self, tenants, controller=None):
        """Run ``tenants`` under a dynamic controller (by default the
        Algorithm 6.2 controller with tenant 0 as the foreground).

        Returns a GroupMeasurement whose ``extra`` carries at least
        ``actions`` (the controller's reallocation trail) and
        ``controller``.
        """
        raise ValidationError(
            f"backend {self.capabilities().name!r} does not support the "
            "dynamic controller"
        )

    def way_utility(self, tenants):
        """Per-tenant way-utility curves: ``{name: WayUtility}``."""
        raise ValidationError(
            f"backend {self.capabilities().name!r} does not expose "
            "way-utility curves"
        )
