"""The partitioning policies of Section 5, written once over any backend.

- *shared*: no partitioning — every tenant may replace anywhere.
- *fair*: an even static split (6/6 for a pair).
- *biased*: the best static split, found exactly as the paper does —
  score every allocation and, among those with minimum foreground
  degradation, pick the one maximizing background throughput.
- *dynamic*: the Algorithm 6.2 controller (:mod:`repro.core.dynamic`).
- *cluster*: LFOC-style apportioning by way-utility class
  (:mod:`repro.core.clustering`).

:data:`POLICIES` lists each policy, the tenant counts it accepts and its
rule, and :func:`run_policy` dispatches through it. A tenant set is any
:class:`~repro.backend.protocol.TenantSet`: a foreground/background pair
is the 2-tenant case of one apportioning problem (the paper's Section
6.3, LFOC). Every rule runs against the
:class:`~repro.backend.protocol.SimBackend` protocol, so the same code
runs on the statistical interval engine
(:class:`~repro.backend.analytical.AnalyticalBackend`) and on
address-level trace replay (:class:`~repro.backend.trace.TraceBackend`).
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.backend import MAX_TENANTS, GroupMeasurement, GroupSplit
from repro.util.errors import ValidationError

# Foreground degradations within this tolerance count as "minimum
# degradation" when choosing the biased split (measurement-noise margin).
_BIAS_TOLERANCE = 0.005


@dataclass
class PolicyOutcome:
    """A policy run: the measurement at the split the policy chose.

    ``measurement`` is the backend-neutral
    :class:`~repro.backend.protocol.GroupMeasurement`; ``sweep`` holds
    the ``(fg_ways, measurement)`` entries a biased choice scored, and
    ``plan`` the :class:`~repro.core.clustering.ClusterPlan` of the
    'cluster' policy.
    """

    policy: str
    measurement: GroupMeasurement
    sweep: list = field(default_factory=list)
    plan: object = None

    @property
    def names(self):
        return self.measurement.names

    @property
    def split(self):
        return self.measurement.split

    @property
    def backend(self):
        return self.measurement.backend

    @property
    def pair(self):
        """The backend's native result (a
        :class:`~repro.sim.engine.PairResult` for an analytical pair, a
        ``{name: TraceStats}`` dict on the trace backend)."""
        return self.measurement.raw

    @property
    def fg_name(self):
        return self.measurement.fg_name

    @property
    def bg_name(self):
        return self.measurement.bg_name

    @property
    def fg_cost(self):
        """Foreground degradation (seconds, or cycles/access); lower is better."""
        return self.measurement.fg_cost

    @property
    def bg_rate(self):
        """Background progress rate; higher is better."""
        return self.measurement.bg_rate

    @property
    def fg_ways(self):
        return self.measurement.fg_ways

    @property
    def bg_ways(self):
        return self.measurement.bg_ways

    # Historical names (analytical units); equal to the generic pair on
    # the analytical backend and aliased on the trace backend.
    @property
    def fg_runtime_s(self):
        return self.fg_cost

    @property
    def bg_rate_ips(self):
        return self.bg_rate


def choose_biased_split(scored):
    """The biased selection rule over ``[(fg_ways, measurement)]``.

    Among splits whose foreground cost is within ``_BIAS_TOLERANCE`` of
    the best observed, picks the one with maximum background rate. Exact
    rate ties break toward the smaller foreground allocation, so the
    choice is deterministic regardless of the ordering of ``scored``
    (and matches the historical first-maximum over an ascending sweep).
    """
    scored = list(scored)
    if not scored:
        raise ValidationError("cannot choose a split from an empty sweep")
    best_cost = min(m.fg_cost for _, m in scored)
    cutoff = best_cost * (1.0 + _BIAS_TOLERANCE)
    candidates = [(w, m) for w, m in scored if m.fg_cost <= cutoff]
    return max(candidates, key=lambda item: (item[1].bg_rate, -item[0]))


def _utility_sweep(backend, tenants):
    """``[(fg_ways, measurement)]`` scores of a group's primary
    allocations from the backend's way-utility curves: primary cost as
    its misses at the allocation, peer rate as their aggregate hits at
    an even apportioning of the complement."""
    ways = backend.capabilities().llc_ways
    names = tuple(tenants.names)
    peers = len(names) - 1
    utilities = backend.way_utility(tenants)
    scored = []
    for fg_ways in range(1, ways - peers + 1):
        base, extra = divmod(ways - fg_ways, peers)
        counts = [base + (1 if i < extra else 0) for i in range(peers)]
        scored.append((
            fg_ways,
            GroupMeasurement(
                backend=backend.capabilities().name,
                names=names,
                split=GroupSplit.from_way_counts([fg_ways] + counts, ways),
                costs=(float(utilities[names[0]].misses_at(fg_ways)),)
                + (None,) * peers,
                rates=(None,) + tuple(
                    float(utilities[name].hits_at(count))
                    for name, count in zip(names[1:], counts)
                ),
                extra={"source": "utility"},
            ),
        ))
    return scored


def policy_biased(backend, tenants, sweep=None):
    """The best static split (the paper's 'biased' policy).

    A pair scores every disjoint split with ``backend.sweep`` (or the
    precomputed ``sweep`` entries); a larger group scores each primary
    allocation from the backend's way-utility curves. When the winning
    entry is a score rather than a measured co-run (``raw`` is unset),
    its split is re-measured with one ``co_run`` so the outcome carries
    real co-run measurements.
    """
    if not sweep:
        if len(tenants.tenants) == 2:
            sweep = backend.sweep(tenants)
        else:
            sweep = _utility_sweep(backend, tenants)
    _, m = choose_biased_split(sweep)
    if m.raw is None:
        m = backend.co_run(tenants, m.split)
    return PolicyOutcome("biased", m, sweep=list(sweep))


def _fixed(name, split_for):
    """The rule co-running every tenant set under one fixed split."""

    def rule(backend, tenants, sweep, controller):
        ways = backend.capabilities().llc_ways
        split = split_for(len(tenants.tenants), ways)
        return PolicyOutcome(name, backend.co_run(tenants, split))

    return rule


def _cluster(backend, tenants, sweep, controller):
    """Profile, classify, apportion, run: one way-utility pass per
    tenant (the backend's cheapest exact source), one ``co_run`` at the
    planned split."""
    from repro.core.clustering import cluster_tenants

    utilities = backend.way_utility(tenants)
    plan = cluster_tenants(
        utilities, names=tenants.names,
        llc_ways=backend.capabilities().llc_ways,
    )
    return PolicyOutcome(
        "cluster", backend.co_run(tenants, plan.split), plan=plan
    )


class Policy(NamedTuple):
    """One row of :data:`POLICIES`."""

    name: str
    # The tenant counts the rule accepts.
    tenants: range
    # ``rule(backend, tenants, sweep, controller)`` -> PolicyOutcome.
    rule: Callable


_ANY = range(2, MAX_TENANTS + 1)

# Every policy, in the order the paper introduces them.
POLICIES = (
    Policy("shared", _ANY, _fixed("shared", GroupSplit.shared)),
    Policy("fair", _ANY, _fixed("fair", GroupSplit.fair)),
    # Resolves ``policy_biased`` at call time, so a wrapper installed
    # on the module attribute sees every biased run.
    Policy("biased", _ANY, lambda backend, tenants, sweep, controller:
           policy_biased(backend, tenants, sweep=sweep)),
    # The Algorithm 6.2 controller shrinks the foreground's allocation
    # while its MPKI stays flat; the backend decides what an MPKI sample
    # and a control period are (100 ms engine steps analytically, replay
    # epochs on traces). ``controller`` replaces the default one.
    Policy("dynamic", _ANY, lambda backend, tenants, sweep, controller:
           PolicyOutcome("dynamic", backend.dynamic(tenants, controller))),
    Policy("cluster", _ANY, _cluster),
)

_BY_NAME = {policy.name: policy for policy in POLICIES}


def run_policy(backend, tenants, policy, sweep=None, controller=None):
    """Run one of :data:`POLICIES` by name over a tenant set.

    ``sweep`` supplies precomputed biased scores; ``controller``
    replaces the dynamic policy's default controller.
    """
    row = _BY_NAME.get(policy)
    if row is None:
        raise ValidationError(f"unknown policy {policy!r}")
    if len(tenants.tenants) not in row.tenants:
        raise ValidationError(
            f"policy {policy!r} takes {row.tenants.start}.."
            f"{row.tenants.stop - 1} tenants, got {len(tenants.tenants)}"
        )
    return row.rule(backend, tenants, sweep, controller)
