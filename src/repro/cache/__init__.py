"""Address-level cache hierarchy simulator.

This package implements the memory system of the paper's prototype Sandy
Bridge platform (Section 2.1):

- private 32 KB L1 data caches and 256 KB non-inclusive L2s per core,
- a shared, inclusive, 12-way 6 MB last-level cache (LLC) with *way-based
  partitioning*: each scheduling domain (core) may only **replace** lines in
  its assigned ways, but **hits anywhere** in the cache, and changing the
  way assignment never flushes data,
- tree-PLRU replacement, a hashed LLC index, and the four Sandy Bridge
  hardware prefetchers.

Every level is a :class:`KernelCacheLevel` (flat arrays, see
:mod:`repro.cache.kernel`); the native kernels in ``*.c`` replay the same
L1 -> L2 -> LLC walk over snapshots of those levels. The interval engine
(:mod:`repro.sim`) uses statistical models for speed; this package is the
ground truth for mechanism behaviour and is exercised directly by the
trace engine, the microbenchmarks and the MRC calibration utilities.
"""

from repro.cache.block import CacheLine, MemoryAccess
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.indexing import HashedIndex, ModuloIndex
from repro.cache.kernel import KernelCacheLevel
from repro.cache.llc import PartitionedLLC, WayMask
from repro.cache.profile import WayCurve, WayProfiler, WaySweep, verify_profile
from repro.cache.prefetch import (
    DcuIpPrefetcher,
    DcuStreamerPrefetcher,
    MlcSpatialPrefetcher,
    MlcStreamerPrefetcher,
    PrefetcherBank,
)
from repro.cache.stats import CacheStats

__all__ = [
    "CacheHierarchy",
    "CacheLine",
    "CacheStats",
    "DcuIpPrefetcher",
    "DcuStreamerPrefetcher",
    "HashedIndex",
    "KernelCacheLevel",
    "MemoryAccess",
    "MlcSpatialPrefetcher",
    "MlcStreamerPrefetcher",
    "ModuloIndex",
    "PartitionedLLC",
    "PrefetcherBank",
    "WayCurve",
    "WayMask",
    "WayProfiler",
    "WaySweep",
    "verify_profile",
]
