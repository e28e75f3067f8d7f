"""repro — a reproduction of Cook et al., ISCA 2013.

"A Hardware Evaluation of Cache Partitioning to Improve Utilization and
Energy-Efficiency while Preserving Responsiveness."

The package simulates the paper's prototype platform (a Sandy Bridge
client chip with way-based LLC partitioning), models its 45-application
workload, implements the shared/fair/biased static policies and the
dynamic MPKI-driven partitioning controller (Algorithms 6.1/6.2), and
regenerates every table and figure of the evaluation.

Quickstart::

    from repro import AnalyticalBackend, Machine, run_policy

    backend = AnalyticalBackend(Machine())
    pair = AnalyticalBackend.group_spec(["471.omnetpp", "ferret"])
    shared = run_policy(backend, pair, "shared")
    biased = run_policy(backend, pair, "biased")
    print(shared.fg_runtime_s, biased.fg_runtime_s)

A foreground/background pair is the 2-tenant case of a
:class:`~repro.backend.TenantSet`; ``run_policy`` takes larger groups
(and the LFOC-style ``"cluster"`` policy) the same way.
"""

from repro.analysis import Characterizer, ConsolidationStudy
from repro.backend import AnalyticalBackend, TenantSet, TraceBackend
from repro.core import (
    DynamicPartitionController,
    PhaseDetector,
    cluster_applications,
    run_policy,
)
from repro.cpu import SandyBridgeConfig
from repro.runtime import CoScheduleHarness, ResctrlFilesystem
from repro.sim import Allocation, Machine
from repro.workloads import (
    all_applications,
    applications_of_suite,
    get_application,
)

__version__ = "1.0.0"

__all__ = [
    "Allocation",
    "AnalyticalBackend",
    "Characterizer",
    "CoScheduleHarness",
    "ConsolidationStudy",
    "DynamicPartitionController",
    "Machine",
    "PhaseDetector",
    "ResctrlFilesystem",
    "SandyBridgeConfig",
    "TenantSet",
    "TraceBackend",
    "all_applications",
    "applications_of_suite",
    "cluster_applications",
    "get_application",
    "run_policy",
]
