"""The paper's contribution: partitioning policies and the dynamic controller.

- :mod:`repro.core.policies` — the Section 5 policy suite (shared /
  fair / biased, the dynamic controller, and LFOC-style clustering) as
  one table, :data:`POLICIES`, run by ``run_policy(backend, tenants,
  policy)`` against the :mod:`repro.backend` protocol so the same code
  runs on the interval engine and on address-level trace replay, for a
  pair or an N-tenant group alike.
- :mod:`repro.core.phase` — the MPKI phase detector (Algorithm 6.1).
- :mod:`repro.core.dynamic` — the dynamic cache-partitioning controller
  (Algorithm 6.2).
- :mod:`repro.core.metrics` — slowdown, weighted speedup, energy
  improvement: the quantities Figs. 9-11 and 13 report.
- :mod:`repro.core.clustering` — the Section 3.5 single-linkage
  clustering over 19-dimensional feature vectors.
"""

from repro.core.bandwidth_qos import QosBandwidthDomain, QosContract, apply_qos
from repro.core.clustering import (
    ClusterResult,
    cluster_applications,
    render_dendrogram,
)
from repro.core.dynamic import ControllerAction, DynamicPartitionController
from repro.core.multi_fg import (
    ForegroundRequest,
    MultiFgPlan,
    SlowdownBoundAllocator,
)
from repro.core.ucp import UcpAllocation, miss_curve, partition_ucp, run_ucp
from repro.core.metrics import (
    energy_ratio,
    relative_throughput,
    slowdown,
    throughput_gain,
    weighted_speedup,
)
from repro.core.phase import PhaseDetector
from repro.core.policies import (
    POLICIES,
    PolicyOutcome,
    choose_biased_split,
    policy_biased,
    run_policy,
)

__all__ = [
    "ClusterResult",
    "ControllerAction",
    "DynamicPartitionController",
    "ForegroundRequest",
    "MultiFgPlan",
    "POLICIES",
    "PhaseDetector",
    "PolicyOutcome",
    "QosBandwidthDomain",
    "QosContract",
    "SlowdownBoundAllocator",
    "UcpAllocation",
    "apply_qos",
    "choose_biased_split",
    "cluster_applications",
    "energy_ratio",
    "miss_curve",
    "partition_ucp",
    "policy_biased",
    "relative_throughput",
    "render_dendrogram",
    "run_policy",
    "run_ucp",
    "slowdown",
    "throughput_gain",
    "weighted_speedup",
]
