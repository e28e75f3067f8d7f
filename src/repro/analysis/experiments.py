"""One driver per paper table/figure.

Each function returns plain data (dicts/lists) that the benchmark harness
prints as the rows/series the paper reports. Expensive sweeps accept an
``apps`` subset; benchmarks pass a representative subset by default and
the full suite when REPRO_FULL=1.
"""

import functools

from repro.analysis.characterize import Characterizer
from repro.analysis.classify import llc_utility_table, scalability_table
from repro.core.clustering import cluster_applications
from repro.core.dynamic import DynamicPartitionController
from repro.exec import parallel_map
from repro.runtime.harness import paper_pair_allocations
from repro.workloads import all_applications, get_application
from repro.workloads.registry import REPRESENTATIVES

FIG2_APPS = ("swaptions", "tomcat", "471.omnetpp")


def _resolve(apps):
    if apps is None:
        return all_applications()
    return [get_application(a) if isinstance(a, str) else a for a in apps]


# -- Section 3: characterization --------------------------------------------


def fig01_thread_scalability(characterizer, apps=None):
    """Fig. 1: speedup versus thread count per application."""
    return {
        app.name: characterizer.scalability_curve(app) for app in _resolve(apps)
    }


def tab01_scalability_classes(characterizer, apps=None):
    """Table 1: scalability categories per suite."""
    return scalability_table(characterizer, _resolve(apps))


def fig02_llc_sensitivity(characterizer, apps=FIG2_APPS, thread_counts=(1, 2, 4, 8)):
    """Fig. 2: execution time versus LLC allocation for representatives."""
    out = {}
    for app in _resolve(apps):
        counts = (1,) if app.scalability.single_threaded else thread_counts
        out[app.name] = {t: characterizer.llc_curve(app, threads=t) for t in counts}
    return out


def tab02_llc_utility(characterizer, apps=None):
    """Table 2: LLC utility categories plus >10 APKI bold set."""
    return llc_utility_table(characterizer, _resolve(apps))


def fig03_prefetch_sensitivity(characterizer, apps=None):
    """Fig. 3: runtime with prefetchers on, normalized to off."""
    return {
        app.name: characterizer.prefetch_sensitivity(app) for app in _resolve(apps)
    }


def fig04_bandwidth_sensitivity(characterizer, apps=None):
    """Fig. 4: runtime next to the bandwidth hog, normalized to alone."""
    return {
        app.name: characterizer.bandwidth_sensitivity(app)
        for app in _resolve(apps)
        if app.name != "stream_uncached"
    }


def fig05_clustering(characterizer, apps=None, cut_distance=0.45):
    """Fig. 5 / Table 3: cluster the suite, report members + medoids.

    The paper cuts its dendrogram at 0.9; our model-derived feature
    vectors have tighter spreads, so the equivalent structure appears at
    0.45 (a documented deviation — the algorithm is identical).
    """
    features = characterizer.features_for(_resolve(apps))
    result = cluster_applications(features, cut_distance=cut_distance)
    return {
        "clusters": result.clusters(),
        "representatives": result.representatives,
        "num_clusters": result.num_clusters,
        "paper_representatives": dict(REPRESENTATIVES),
        "result": result,
    }


# -- Section 4: the allocation space ----------------------------------------------


def _fig06_cell(machine, cell):
    name, threads, ways = cell
    r = machine.run_solo_cached(get_application(name), threads=threads, ways=ways)
    return {
        "runtime_s": r.runtime_s,
        "mpki": r.mpki,
        "socket_energy_j": r.socket_energy_j,
        "wall_energy_j": r.wall_energy_j,
    }


def fig06_allocation_space(
    characterizer,
    apps=None,
    thread_counts=range(1, 9),
    way_counts=range(1, 13),
    workers=None,
):
    """Fig. 6: runtime/MPKI/socket/wall energy over all 96 allocations."""
    apps = _resolve(apps) if apps is not None else [
        get_application(n) for n in REPRESENTATIVES.values()
    ]
    cells = []
    for app in apps:
        for threads in thread_counts:
            try:
                app.scalability.validate_threads(threads)
            except Exception:
                continue
            for ways in way_counts:
                cells.append((app.name, threads, ways))
    results = parallel_map(
        functools.partial(_fig06_cell, characterizer.machine), cells,
        workers=workers,
    )
    out = {app.name: {} for app in apps}
    for (name, threads, ways), result in zip(cells, results):
        out[name][(threads, ways)] = result
    return out


def fig07_energy_contours(allocation_space):
    """Fig. 7: wall energy normalized to each app's minimum."""
    out = {}
    for name, grid in allocation_space.items():
        best = min(cell["wall_energy_j"] for cell in grid.values())
        out[name] = {
            key: cell["wall_energy_j"] / best for key, cell in grid.items()
        }
    return out


# -- Section 5: multiprogrammed analyses -------------------------------------------


def _fig08_solo(machine, name):
    app = get_application(name)
    threads = 1 if app.scalability.single_threaded else 4
    return machine.run_solo_cached(app, threads=threads, ways=12).runtime_s


def _fig08_pair(machine, pair_names):
    fg = get_application(pair_names[0])
    bg = get_application(pair_names[1])
    fg_alloc, bg_alloc = paper_pair_allocations(
        fg, bg, llc_ways=machine.config.llc_ways
    )
    pair = machine.run_pair(fg, bg, fg_alloc, bg_alloc, bg_continuous=True)
    return pair.fg.runtime_s


def fig08_pairwise_slowdowns(machine, apps=None, workers=None):
    """Fig. 8: foreground slowdown for every (fg, bg) pair, shared LLC."""
    apps = _resolve(apps)
    names = [app.name for app in apps]
    solo = dict(zip(names, parallel_map(
        functools.partial(_fig08_solo, machine), names, workers=workers
    )))
    pairs = [(fg, bg) for fg in names for bg in names]
    fg_runtimes = parallel_map(
        functools.partial(_fig08_pair, machine), pairs, workers=workers
    )
    return {
        (fg, bg): runtime / solo[fg]
        for (fg, bg), runtime in zip(pairs, fg_runtimes)
    }


def fig09_partitioning_policies(study):
    """Fig. 9: fg slowdown under shared/fair/biased for all rep pairs."""
    rows = {}
    for fg, bg in study.ordered_pairs():
        rows[(fg, bg)] = {
            policy: study.fg_slowdown(fg, bg, policy)
            for policy in ("shared", "fair", "biased")
        }
    return rows


def fig10_consolidation_energy(study, meter="socket"):
    """Fig. 10: consolidated energy normalized to sequential execution."""
    rows = {}
    for fg, bg in study.unordered_pairs():
        rows[(fg, bg)] = {
            policy: study.energy_ratio(fg, bg, policy, meter=meter)
            for policy in ("shared", "fair", "biased")
        }
    return rows


def fig11_weighted_speedup(study):
    """Fig. 11: weighted speedup of consolidation over sequential."""
    rows = {}
    for fg, bg in study.unordered_pairs():
        rows[(fg, bg)] = {
            policy: study.weighted_speedup(fg, bg, policy)
            for policy in ("shared", "fair", "biased")
        }
    return rows


# -- Section 6: dynamic partitioning -----------------------------------------------


def fig12_mcf_phases(machine, way_counts=(2, 4, 6, 9, 12), include_dynamic=True):
    """Fig. 12: 429.mcf MPKI over retired instructions, static vs dynamic."""
    mcf = get_application("429.mcf")
    series = {}
    for ways in way_counts:
        series[f"{ways} ways"] = _mpki_series(machine, mcf, ways)
    if include_dynamic:
        series["dynamic"] = _dynamic_mpki_series(machine, mcf)
    return series


def _mpki_series(machine, app, ways):
    from repro.sim.allocation import Allocation
    from repro.sim.engine import Machine  # noqa: F401 (documentation import)
    from repro.sim.interval import AppState, solve_interval

    points = []
    retired = 0.0
    for phase in app.phases:
        alloc = Allocation.solo(threads=1, num_ways=ways, llc_ways=machine.config.llc_ways)
        state = AppState(app=app, allocation=alloc)
        state.progress = min(
            0.9999, retired / app.instructions + phase.weight / 2
        )
        sol = solve_interval(
            [state], machine.config, machine.memory_system, machine.power_model
        )
        retired += phase.weight * app.instructions
        points.append(
            {
                "instructions": retired,
                "mpki": sol.per_app[app.name].mpki,
                "ways": ways,
            }
        )
    return points


def _dynamic_mpki_series(machine, mcf):
    bg = get_application("swaptions")
    controller = DynamicPartitionController(
        fg_name=mcf.name,
        bg_name=bg.name,
        llc_ways=machine.config.llc_ways,
        way_mb=machine.config.way_mb,
    )
    masks = controller.masks()
    fg_alloc, bg_alloc = paper_pair_allocations(
        mcf, bg, llc_ways=machine.config.llc_ways
    )
    pair = machine.run_pair(
        mcf,
        bg,
        fg_alloc.with_mask(masks[mcf.name]),
        bg_alloc.with_mask(masks[bg.name]),
        bg_continuous=True,
        controller=controller,
        timeline=True,
    )
    points = []
    retired = 0.0
    for point in pair.timeline:
        info = point.per_app.get(mcf.name)
        if info is None:
            continue
        retired += info["rate_ips"] * 0.1
        points.append(
            {"instructions": retired, "mpki": info["mpki"], "ways": info["ways"]}
        )
    return points


def fig13_dynamic_background_throughput(study):
    """Fig. 13: bg throughput of dynamic and shared vs best static."""
    rows = {}
    for fg, bg in study.ordered_pairs():
        rows[(fg, bg)] = study.dynamic_vs_best_static(fg, bg)
    return rows


# -- Mechanism-level way utility (address-level ground truth) -----------------


# The canonical background mix for N-domain trace studies: (workload
# name, trace kind, length, positional args builder, kwargs, tid,
# think cycles). Domains beyond the foreground are drawn in order, so
# --domains 3 co-runs fg + the first two rows, --domains 4 all three.
def _mb(n):
    from repro.util.units import MB

    return n * MB


_BG_TABLE = (
    ("bg", "stream", 30_000, (32,), {}, 4, 2),
    ("bg2", "stream", 30_000, (16,), {}, 2, 2),
    ("bg3", "chase", 30_000, (2,), {"seed": 11}, 6, 4),
)


def background_factories(domains):
    """Picklable ``(name, factory, tid, think_cycles)`` rows for the
    background domains of an N-domain co-run (``domains`` includes the
    foreground, so 2 <= domains <= 4 on the four-core hierarchy)."""
    from repro.util.errors import ValidationError
    from repro.workloads.trace import make_trace

    if not 2 <= domains <= 1 + len(_BG_TABLE):
        raise ValidationError(
            f"domains must be 2..{1 + len(_BG_TABLE)}, got {domains}"
        )
    rows = []
    for name, kind, length, mbs, kwargs, tid, think in _BG_TABLE[:domains - 1]:
        positional = tuple(_mb(m) for m in mbs)
        factory = functools.partial(
            make_trace, kind, length, *positional, tid=tid, **kwargs
        )
        rows.append((name, factory, tid, think))
    return rows


def trace_kind_factory(kind, length, footprint_mb=4.0, alpha=0.9, seed=1,
                       tid=0):
    """A picklable constructor for one synthetic trace kind.

    Maps each registered kind's knobs (footprint, zipf skew, seed) to
    its constructor arguments — the one place the CLI, the trace
    backend, and the bench agree on what ``--trace zipf
    --footprint-mb 4`` means.
    """
    from repro.workloads.trace import make_trace

    footprint = int(_mb(footprint_mb))
    positional, kwargs = {
        "zipf": ((footprint,), {"alpha": alpha, "seed": seed}),
        "stream": ((footprint,), {}),
        "stride": ((), {"stride": 256}),
        "chase": ((footprint,), {"seed": seed}),
    }.get(kind, ((footprint,), {}))
    return functools.partial(
        make_trace, kind, length, *positional, tid=tid, **kwargs
    )


_GROUP_TIDS = (0, 4, 2, 6)  # cores 0, 2, 1, 3 under tid // 2
_GROUP_THINKS = (6, 2, 2, 2)


def trace_group_spec(kinds, accesses=60_000, footprint_mb=4.0, alpha=0.9,
                     seed=1, bg_footprint_mb=8.0):
    """A backend :class:`~repro.backend.protocol.TenantSet` from 2..4
    synthetic trace kinds (what ``repro consolidate --backend trace``,
    ``repro trace-cluster`` and trace campaign cells run the policy
    suite on).

    Tenant 0 is the primary (the foreground: tid 0, 6 think cycles,
    ``footprint_mb``, ``seed``); the rest are peers on their own cores
    with ``bg_footprint_mb`` and seeds ``seed + i`` — tenant 1 of a pair
    is the background on tid 4 with 2 think cycles. Repeated kinds are
    aliased ("#2", "#3") so tenant names stay unique.
    """
    from repro.backend import TenantSet
    from repro.sim.trace_engine import TraceWorkload
    from repro.util.errors import ValidationError

    kinds = list(kinds)
    if not 2 <= len(kinds) <= len(_GROUP_TIDS):
        raise ValidationError(
            f"a trace group takes 2..{len(_GROUP_TIDS)} tenants (one per "
            f"core), got {len(kinds)}"
        )
    counts = {}
    tenants = []
    for i, kind in enumerate(kinds):
        counts[kind] = counts.get(kind, 0) + 1
        name = kind if counts[kind] == 1 else f"{kind}#{counts[kind]}"
        tid = _GROUP_TIDS[i]
        tenants.append(TraceWorkload(
            name,
            trace_kind_factory(
                kind, accesses,
                footprint_mb=footprint_mb if i == 0 else bg_footprint_mb,
                alpha=alpha, seed=seed + i, tid=tid,
            ),
            tid=tid,
            think_cycles=_GROUP_THINKS[i],
        ))
    return TenantSet(tenants=tenants)


def verify_trace_group_replay(backend, group, outcome):
    """Cross-check one group outcome against direct per-mask replay.

    Rebuilds the chosen split's masks on a hand-built engine — the
    sequential per-tenant reference — and requires every tenant's cost
    and rate to match *exactly*. Returns the number of comparisons;
    raises ValidationError on the first mismatch.
    """
    from repro.cache.llc import WayMask
    from repro.sim.trace_engine import TraceEngine
    from repro.util.errors import ValidationError

    llc_ways = backend.capabilities().llc_ways
    engine = TraceEngine(prefetchers_on=False)
    for tenant, bits in zip(group.tenants, outcome.split.mask_bits):
        engine.hierarchy.set_way_mask(
            tenant.tid // 2, WayMask.from_bits(bits, llc_ways)
        )
    stats = engine.run_packed(
        list(group.tenants), total_accesses=backend.total_accesses
    )
    checked = 0
    for i, name in enumerate(group.names):
        direct = (
            stats[name].avg_latency,
            stats[name].access_rate_per_kilocycle,
        )
        via_group = (
            outcome.measurement.costs[i],
            outcome.measurement.rates[i],
        )
        if direct != via_group:
            raise ValidationError(
                f"{name}: group path {via_group} != direct mask replay "
                f"{direct}"
            )
        checked += 2
    return checked


def trace_way_utility(fg_factory=None, bg_factory=None, total_accesses=120_000,
                      domains=2):
    """Per-domain ``hits(ways)`` utility curves from one profiled co-run.

    The address-level companion to the fig. 2/6 sensitivity sweeps: a
    cache-friendly foreground and ``domains - 1`` background traces
    (streaming/chase mixes from ``_BG_TABLE``; ``bg_factory`` overrides
    the first) co-run once through the cache hierarchy with a
    way profiler attached, and every allocation point 1..12 is read from
    the stack-distance histograms instead of re-simulating per mask.
    Returns ``{"stats": {name: TraceStats}, "curves": {name: WayCurve}}``.
    """
    from repro.sim.trace_engine import TraceWorkload, way_allocation_sweep
    from repro.util.units import MB
    from repro.workloads.trace import ZipfTrace

    fg_factory = fg_factory or (
        lambda: ZipfTrace(40_000, 6 * MB, alpha=0.9, tid=0, seed=7)
    )
    workloads = [TraceWorkload("fg", fg_factory, tid=0, think_cycles=6)]
    for i, (name, factory, tid, think) in enumerate(
        background_factories(domains)
    ):
        if i == 0 and bg_factory is not None:
            factory = bg_factory
        workloads.append(
            TraceWorkload(name, factory, tid=tid, think_cycles=think)
        )
    stats, curves = way_allocation_sweep(
        workloads, total_accesses=total_accesses
    )
    named = {w.name: curves[w.tid // 2] for w in workloads}
    return {"stats": stats, "curves": named}


def _verify_domain_cell(item):
    """One domain's profile-vs-brute-force check."""
    from repro.cache.profile import verify_profile

    factory, way_counts = item
    return verify_profile(factory, way_counts=way_counts, use_pack=True)


def verify_trace_domains(factories, way_counts=None, workers=None):
    """Verify every domain of an N-domain sweep, one worker per domain.

    Each domain's single-pass profile is re-checked against per-mask
    brute-force re-simulation (:func:`repro.cache.profile.verify_profile`).
    The domains are independent, so they fan out through
    :func:`repro.exec.parallel_map`. Every pack is opened here, in the
    parent, before the pool forks: the workers inherit the open packs
    instead of regenerating or shipping the traces. Returns the
    per-domain row lists, in input order; raises on any mismatch.
    """
    from repro.workloads.tracepack import get_pack

    factories = list(factories)
    for f in factories:
        get_pack(f())
    items = [(f, way_counts) for f in factories]
    return parallel_map(_verify_domain_cell, items, workers=workers)


# -- Headline numbers (Sections 1 and 8) ---------------------------------------------


def headline_numbers(study):
    """The abstract's summary metrics, recomputed from the rep pairs."""
    import statistics as st

    slowdowns = {p: [] for p in ("shared", "fair", "biased")}
    for fg, bg in study.ordered_pairs():
        for policy in slowdowns:
            slowdowns[policy].append(study.fg_slowdown(fg, bg, policy))
    energy = {p: [] for p in ("shared", "biased")}
    speedup = {p: [] for p in ("shared", "biased")}
    for fg, bg in study.unordered_pairs():
        for policy in energy:
            energy[policy].append(study.energy_ratio(fg, bg, policy))
            speedup[policy].append(study.weighted_speedup(fg, bg, policy))
    dynamic = [
        study.dynamic_vs_best_static(fg, bg) for fg, bg in study.ordered_pairs()
    ]
    return {
        "shared": {
            "energy_improvement": 1 - st.mean(energy["shared"]),
            "weighted_speedup": st.mean(speedup["shared"]),
            "avg_slowdown": st.mean(slowdowns["shared"]) - 1,
            "worst_slowdown": max(slowdowns["shared"]) - 1,
        },
        "biased": {
            "energy_improvement": 1 - st.mean(energy["biased"]),
            "weighted_speedup": st.mean(speedup["biased"]),
            "avg_slowdown": st.mean(slowdowns["biased"]) - 1,
            "worst_slowdown": max(slowdowns["biased"]) - 1,
        },
        "fair": {
            "avg_slowdown": st.mean(slowdowns["fair"]) - 1,
            "worst_slowdown": max(slowdowns["fair"]) - 1,
        },
        "dynamic": {
            "fg_gap_to_best_static": max(
                d["fg_slowdown_dynamic"] - d["fg_slowdown_best_static"]
                for d in dynamic
            ),
            "bg_throughput_gain": st.mean(
                d["bg_throughput_dynamic"] for d in dynamic
            )
            - 1,
            "bg_throughput_max": max(d["bg_throughput_dynamic"] for d in dynamic),
            "bg_throughput_shared_gain": st.mean(
                d["bg_throughput_shared"] for d in dynamic
            )
            - 1,
        },
    }
