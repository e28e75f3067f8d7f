"""OS-level runtime layer: pinning, partition control, and run harnesses.

Mirrors how the paper (and a production deployment on CAT hardware) would
drive the mechanism: ``taskset``-style CPU pinning (Section 2.1), a
resctrl-style filesystem interface over the partitioning MSRs (the
interface shipping Intel parts expose), and a harness that sets up the
paper's standard co-scheduling configuration (4 threads on 2 dedicated
cores per application, Section 5).
"""

from repro.runtime.harness import CoScheduleHarness, paper_pair_allocations
from repro.runtime.resctrl import ResctrlFilesystem, ResctrlGroup
from repro.runtime.scheduler import (
    ContentionAwareScheduler,
    InterferencePredictor,
    PairingPrediction,
    SchedulingDecision,
)
from repro.runtime.taskset import PinRegistry, taskset

__all__ = [
    "CoScheduleHarness",
    "ContentionAwareScheduler",
    "InterferencePredictor",
    "PairingPrediction",
    "PinRegistry",
    "ResctrlFilesystem",
    "ResctrlGroup",
    "SchedulingDecision",
    "paper_pair_allocations",
    "taskset",
]
