"""In-memory spans around the program's layer entry points.

The benchmark records spans from its own files: for a traced sample it
wraps the public entry point of each layer (``TARGETS``), runs the
workload, and restores every original. Each span keeps a name, start,
end and parent id; all spans of one sample share a run id. A layer's
self time is its spans' time minus the time their child spans cover,
so the self times of all spans add up to the root span's duration.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional, Tuple


class Target(NamedTuple):
    """One wrapped layer entry point and the per-layer metrics it feeds."""

    module: str  # defining module
    attr: str  # function or Class.method
    self_s: str  # metric summing the self time of its spans
    calls: Optional[str] = None  # metric counting its calls
    count: Optional[Tuple[str, Callable]] = None  # (metric, result -> count)

    @property
    def span(self):
        """The span name: ``<layer>.<function>``, after the module's package."""
        return f"{self.module.split('.')[1]}.{self.attr}"


TARGETS = (
    Target("repro.campaign.manifest", "expand_manifest", "campaign.expand_s"),
    Target("repro.campaign.planner", "plan_shards", "campaign.plan_s"),
    Target("repro.campaign.runner", "run_campaign", "campaign.self_s"),
    Target("repro.campaign.summary", "summarize_campaign", "campaign.summarize_s"),
    Target("repro.analysis.store", "save_runset_shard", "analysis.shard_write_s"),
    Target("repro.analysis.store", "record_from_outcome", "analysis.record_build_s"),
    Target(
        "repro.analysis.store", "record_from_group_outcome", "analysis.record_build_s"
    ),
    Target(
        "repro.analysis.store", "load_runset_dir", "analysis.store_load_s",
        count=("analysis.records_loaded", lambda runset: len(runset.records)),
    ),
    Target("repro.analysis.compare", "diff_runsets", "analysis.diff_s"),
    Target(
        "repro.workloads.tracepack", "get_pack", "workloads.get_pack_s",
        calls="workloads.get_pack_calls",
    ),
    Target("repro.sim.trace_engine", "run_packed_roster", "sim.roster_self_s"),
    Target("repro.sim.trace_engine", "run_dynamic_roster", "sim.dynroster_self_s"),
    Target("repro.sim.gridsolve", "run_pair_grid", "sim.grid_s"),
    Target(
        "repro.sim.engine", "Machine.run_pair", "sim.run_pair_s",
        calls="sim.run_pair_calls",
    ),
    Target("repro.cache.kernel", "build_native_batch_replay", "cache.batch_build_s"),
    Target(
        "repro.cache.kernel", "build_native_epoch_batch_replay", "cache.batch_build_s"
    ),
    Target("repro.cache.kernel", "NativeBatchReplay.run", "cache.batch_run_s"),
    Target(
        "repro.cache.kernel", "NativeEpochBatchReplay.run_active", "cache.epoch_run_s"
    ),
    Target(
        "repro.core.dynamic", "DynamicPartitionController.on_tick", "core.tick_s",
        calls="core.ticks",
    ),
    Target("repro.core.dynamic", "mpki_windows", "core.mpki_windows_s"),
    Target("repro.core.policies", "policy_biased", "core.biased_select_s"),
    Target("repro.core.clustering", "cluster_tenants", "core.cluster_s"),
    Target("repro.backend.trace", "TraceBackend.way_utility", "backend.way_utility_s"),
    Target(
        "repro.backend.trace", "TraceBackend.sweep_entries", "backend.sweep_entries_s"
    ),
    Target(
        "repro.backend.analytical", "AnalyticalBackend.co_run_grid",
        "backend.co_run_grid_s",
    ),
    Target(
        "repro.exec.pool", "parallel_map", "exec.parallel_map_s",
        count=("exec.fallback_cells", len),
    ),
)

ROOT = "bench.sample"  # the root span; its self time is bench.self_s


class Tracer:
    """Records spans for one sample and owns the wrappers it installs."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, measure=None):
        """``fn`` recording one span per call (and ``measure(result)``)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": name,
                "start": clock(),
                "end": None,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span["count"] = measure(result)
                return result
            finally:
                stack.pop()
                span["end"] = clock()

        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` inside the root span."""
        return self.wrap(ROOT, fn)(*args)

    def install(self):
        """Wrap every target where its callers look it up.

        A method is patched on its class. A function is patched on every
        loaded ``repro`` module that holds it: its defining module (for
        callers that import it inside a function body) and each module
        that bound it at import time.
        """
        for target in TARGETS:
            module = importlib.import_module(target.module)
            measure = target.count[1] if target.count else None
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(target.span, original, measure))
                continue
            original = getattr(module, target.attr)
            wrapper = self.wrap(target.span, original, measure)
            for loaded in list(sys.modules.values()):
                if (
                    getattr(loaded, "__name__", "").startswith("repro")
                    and vars(loaded).get(target.attr) is original
                ):
                    self._patched.append((loaded, target.attr, original))
                    setattr(loaded, target.attr, wrapper)

    def restore(self):
        """Put every original back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({"run": self.run_id, **span}) + "\n")


def self_times(spans):
    """``{span id: self seconds}``: each span's duration minus the union
    of the intervals its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children[span["id"]]):
            low = max(start, cursor)
            high = min(end, span["end"])
            if high > low:
                covered += high - low
                cursor = high
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, counters):
    """Every span-derived per-layer metric of one traced sample.

    ``counters`` is the sample's engine-counter delta. A layer the
    workload never enters reads 0.
    """
    out = {"bench.self_s": 0.0, "bench.traced_wall_s": 0.0}
    for target in TARGETS:
        out[target.self_s] = 0.0
        if target.calls:
            out[target.calls] = 0
        if target.count:
            out[target.count[0]] = 0
    by_span = {target.span: target for target in TARGETS}
    own = self_times(spans)
    for span in spans:
        if span["name"] == ROOT:
            out["bench.self_s"] += own[span["id"]]
            out["bench.traced_wall_s"] += span["end"] - span["start"]
            continue
        target = by_span[span["name"]]
        out[target.self_s] += own[span["id"]]
        if target.calls:
            out[target.calls] += 1
        if target.count:
            out[target.count[0]] += span.get("count", 0)  # 0 if it raised
    out["campaign.shards"] = counters["campaign_shards"]
    pack_lookups = counters["pack_hits"] + counters["pack_misses"]
    out["workloads.pack_hit_ratio"] = _ratio(counters["pack_hits"], pack_lookups)
    out["workloads.pack_compiled_accesses"] = counters["pack_compiled_accesses"]
    out["sim.grid_cells_per_s"] = _ratio(counters["grid_cells"], out["sim.grid_s"])
    out["sim.memo_hit_ratio"] = _ratio(
        counters["memo_hits"], counters["memo_hits"] + counters["memo_misses"]
    )
    out["sim.occupancy_iterations"] = counters["occupancy_iterations"]
    out["cache.kernel_accesses_per_s"] = _ratio(
        counters["trace_accesses"],
        out["cache.batch_run_s"] + out["cache.epoch_run_s"],
    )
    out["cache.batch_calls"] = counters["batch_calls"]
    out["cache.cells_per_batch_call"] = _ratio(
        counters["batch_cells"], counters["batch_calls"]
    )
    out["cache.epoch_calls"] = counters["dynbatch_calls"]
    out["cache.cells_per_epoch_call"] = _ratio(
        counters["dynbatch_cells"], counters["dynbatch_calls"]
    )
    return out
