"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflows of the paper's evaluation:

- ``list-apps`` — the 45-application workload and its classifications.
- ``characterize APP...`` — the Section 3 studies for named apps.
- ``run-solo APP`` — one application, one allocation, full measurements.
- ``consolidate FG BG`` — compare shared/fair/biased (+ optionally UCP or
  the dynamic controller) on either backend (``--backend analytical`` runs
  the interval engine over application models; ``--backend trace`` runs
  the same policy code over address-level trace replay).
- ``dynamic FG BG`` — run the Algorithm 6.1/6.2 controller, print its trace.
- ``figure ID`` — regenerate a paper figure/table (1, 2, ..., 13, headline).
- ``trace-sweep`` — way-allocation utility curves from one profiled replay.
- ``trace-dynamic`` — the dynamic controller driving an address-level
  trace co-run through the epoch-resumable replay kernel.
- ``campaign plan|run|summarize`` — fleet-scale experiment grids:
  expand a JSON manifest into content-addressed cells, execute them as
  batched roster shards into a resumable multi-shard store, reduce the
  store back into the compare/render pipeline.
"""

import argparse
import os
import sys

from repro.analysis import Characterizer, ConsolidationStudy
from repro.analysis.classify import classify_llc_utility, classify_scalability
from repro.sim import Machine
from repro.util.errors import ReproError, ValidationError
from repro.util.tables import format_table
from repro.workloads import all_applications, get_application

# ``consolidate``'s trace workload knobs and their defaults. They have
# no meaning on the analytical backend, so giving one there is an error.
_TRACE_KNOBS = {"accesses": 60_000, "footprint_mb": 4.0, "alpha": 0.9,
                "seed": 1}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Cook et al., ISCA 2013 (cache partitioning).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listp = sub.add_parser("list-apps", help="list the workload")
    listp.add_argument("--suite", default=None)

    char = sub.add_parser("characterize", help="Section 3 studies")
    char.add_argument("apps", nargs="+")

    desc = sub.add_parser("describe", help="show an application's model")
    desc.add_argument("apps", nargs="+")

    solo = sub.add_parser("run-solo", help="run one application alone")
    solo.add_argument("app")
    solo.add_argument("--threads", type=int, default=4)
    solo.add_argument("--ways", type=int, default=12)

    cons = sub.add_parser("consolidate", help="compare partitioning policies")
    cons.add_argument(
        "fg",
        help="foreground application (or trace kind with --backend trace)",
    )
    cons.add_argument(
        "bg",
        help="background application (or trace kind with --backend trace)",
    )
    cons.add_argument(
        "--ucp", action="store_true",
        help="include the UCP baseline (analytical pair only)",
    )
    cons.add_argument(
        "--backend",
        default="analytical",
        choices=("analytical", "trace"),
        help="simulation substrate: the statistical interval engine, or "
        "address-level trace replay (fg/bg name synthetic trace kinds)",
    )
    cons.add_argument(
        "--dynamic",
        action="store_true",
        help="also run the Algorithm 6.2 dynamic controller",
    )
    cons.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the outcomes as a versioned run-set JSON "
        "(diffable with 'repro compare')",
    )
    cons.add_argument(
        "--check",
        action="store_true",
        help="(trace backend) replay every fixed-split outcome (shared, "
        "fair, biased, cluster) with direct way masks and require every "
        "tenant's cost and rate to match (non-zero on mismatch)",
    )
    cons.add_argument(
        "--accesses", type=int, default=None,
        help="(trace backend) accesses per workload "
        f"(default {_TRACE_KNOBS['accesses']})",
    )
    cons.add_argument(
        "--footprint-mb", type=float, default=None,
        help="(trace backend) foreground footprint "
        f"(default {_TRACE_KNOBS['footprint_mb']})",
    )
    cons.add_argument(
        "--alpha", type=float, default=None,
        help=f"(trace backend) zipf skew (default {_TRACE_KNOBS['alpha']})",
    )
    cons.add_argument(
        "--seed", type=int, default=None,
        help=f"(trace backend) trace seed (default {_TRACE_KNOBS['seed']})",
    )
    cons.add_argument(
        "--tenants",
        nargs="+",
        default=None,
        metavar="NAME",
        help="additional co-running tenants beyond fg/bg: the policies "
        "run over the full N-tenant group (group way-partitioning) "
        "instead of the two-tenant pair",
    )

    dyn = sub.add_parser("dynamic", help="run the dynamic controller")
    dyn.add_argument("fg")
    dyn.add_argument("bg", nargs="+", help="one or two background applications")
    dyn.add_argument(
        "--actions",
        type=int,
        default=25,
        help="reallocation actions to print (0 = all)",
    )

    fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig.add_argument("id", help="1..13 or 'headline'")
    fig.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for expensive sweeps (default: REPRO_WORKERS or 1)",
    )

    rep = sub.add_parser("report", help="full paper-vs-measured report")
    rep.add_argument("--output", default=None, help="write to a file")

    ev = sub.add_parser("evaluate", help="run the evaluation, keep artifacts")
    ev.add_argument("--output", default="results", help="artifact directory")
    ev.add_argument("--stages", nargs="*", default=None)
    ev.add_argument("--force", action="store_true")
    ev.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for expensive sweeps (default: REPRO_WORKERS or 1)",
    )

    sweep = sub.add_parser(
        "trace-sweep",
        help="way-allocation sweep from one profiled replay (UMON-style)",
    )
    from repro.workloads.trace import trace_kinds

    sweep.add_argument(
        "--trace",
        default="zipf",
        choices=tuple(trace_kinds()),
        help="synthetic trace kind for the profiled workload",
    )
    sweep.add_argument("--accesses", type=int, default=60_000)
    sweep.add_argument("--footprint-mb", type=float, default=4.0)
    sweep.add_argument("--alpha", type=float, default=0.9, help="zipf skew")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument(
        "--ways",
        default=None,
        help="comma-separated allocations to report (default 1..12)",
    )
    sweep.add_argument(
        "--co-run",
        action="store_true",
        help="profile the trace co-running with a streaming background "
        "through the full hierarchy instead of standalone",
    )
    sweep.add_argument(
        "--check",
        action="store_true",
        help="verify the profile against brute-force per-mask re-simulation "
        "(exits non-zero on any mismatch)",
    )
    sweep.add_argument(
        "--engine-stat",
        action="store_true",
        help="print the engine's own perf-stat block (pack cache "
        "hits/misses, profiler passes) after the sweep",
    )
    sweep.add_argument(
        "--domains",
        type=int,
        default=2,
        help="co-running domains including the foreground (2-4; "
        "requires --co-run)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the --check fan-out "
        "(default: REPRO_WORKERS or 1)",
    )
    sweep.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the per-split profile scores as a versioned run-set "
        "JSON (2-domain co-run only)",
    )

    tdyn = sub.add_parser(
        "trace-dynamic",
        help="dynamic controller over an address-level trace co-run "
        "(epoch-resumable replay, flush-free reallocation)",
    )
    tdyn.add_argument(
        "--trace",
        default="chase",
        choices=tuple(trace_kinds()),
        help="synthetic trace kind for the foreground",
    )
    tdyn.add_argument("--accesses", type=int, default=12_000)
    tdyn.add_argument("--footprint-mb", type=float, default=8.0)
    tdyn.add_argument("--alpha", type=float, default=0.9, help="zipf skew")
    tdyn.add_argument("--seed", type=int, default=7)
    tdyn.add_argument(
        "--epoch-accesses",
        type=int,
        default=4_000,
        help="combined accesses per control epoch",
    )
    tdyn.add_argument("--total-accesses", type=int, default=200_000)
    tdyn.add_argument(
        "--actions",
        type=int,
        default=25,
        help="timeline entries to print (0 = all)",
    )
    tdyn.add_argument(
        "--engine-stat",
        action="store_true",
        help="print the engine's own perf-stat block after the run",
    )
    tdyn.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the dynamic outcome as a versioned run-set JSON",
    )

    tclu = sub.add_parser(
        "trace-cluster",
        help="LFOC-style clustering policy over an N-tenant trace group "
        "(profile way utility, classify, apportion, replay)",
    )
    tclu.add_argument(
        "--tenants",
        nargs="+",
        default=["zipf", "stream", "chase", "stream"],
        metavar="KIND",
        choices=tuple(trace_kinds()),
        help="2-4 synthetic trace kinds, one replay domain each "
        "(repeats allowed; the first is the primary tenant)",
    )
    tclu.add_argument("--accesses", type=int, default=60_000)
    tclu.add_argument("--footprint-mb", type=float, default=4.0)
    tclu.add_argument(
        "--bg-footprint-mb", type=float, default=8.0,
        help="footprint of every tenant after the first",
    )
    tclu.add_argument("--alpha", type=float, default=0.9, help="zipf skew")
    tclu.add_argument("--seed", type=int, default=1)
    tclu.add_argument(
        "--check",
        action="store_true",
        help="verify the batched group replay bit-identically against a "
        "sequential per-tenant reference engine (non-zero on mismatch)",
    )
    tclu.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the cluster outcome as a versioned run-set JSON",
    )

    cmp_ = sub.add_parser(
        "compare",
        help="diff two evaluate artifact directories, run-set JSON "
        "files, or multi-shard campaign stores",
    )
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    cmp_.add_argument("--stages", nargs="*", default=["headline"])
    cmp_.add_argument("--tolerance", type=float, default=0.02)
    cmp_.add_argument(
        "--fail-on-moved",
        action="store_true",
        help="exit non-zero when any metric moved beyond tolerance (or "
        "any record exists on only one side) — the CI regression gate",
    )

    camp = sub.add_parser(
        "campaign",
        help="fleet-scale experiment campaigns (plan / run / summarize)",
    )
    campsub = camp.add_subparsers(dest="campaign_command", required=True)

    cplan = campsub.add_parser(
        "plan", help="expand a manifest and report the shard plan"
    )
    cplan.add_argument("manifest", help="campaign manifest JSON")
    cplan.add_argument(
        "--dry-run",
        action="store_true",
        help="planning never executes cells; this flag is accepted for "
        "symmetry with 'campaign run'",
    )
    cplan.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="count cells already persisted in this store as skipped",
    )
    cplan.add_argument("--shard-size", type=int, default=None)

    crun = campsub.add_parser(
        "run", help="execute a campaign into a multi-shard run-set store"
    )
    crun.add_argument("manifest", help="campaign manifest JSON")
    crun.add_argument(
        "--store", required=True, metavar="DIR",
        help="directory of RunSet shard files (the checkpoint store)",
    )
    crun.add_argument(
        "--resume",
        action="store_true",
        help="skip every cell whose record the store already holds",
    )
    crun.add_argument(
        "--check",
        action="store_true",
        help="after running, re-execute every cell sequentially and "
        "require exact metric agreement (non-zero on mismatch)",
    )
    crun.add_argument(
        "--check-stride", type=int, default=1,
        help="with --check, verify every Nth cell (default: all)",
    )
    crun.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the merged records as one run-set JSON",
    )
    crun.add_argument("--workers", type=int, default=None)
    crun.add_argument(
        "--threads", type=int, default=None,
        help="native kernel threads per roster shard "
        "(default: REPRO_NATIVE_THREADS or all usable CPUs)",
    )
    crun.add_argument("--shard-size", type=int, default=None)
    crun.add_argument("--max-attempts", type=int, default=None)
    crun.add_argument(
        "--stop-after-shards", type=int, default=None,
        help="checkpoint and exit after N shards (resume later)",
    )
    crun.add_argument(
        "--engine-stat",
        action="store_true",
        help="print the engine's own perf-stat block afterwards",
    )

    csum = campsub.add_parser(
        "summarize", help="reduce a campaign store into a report"
    )
    csum.add_argument("store", help="campaign store directory")
    csum.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the summary as JSON instead of text",
    )

    return parser


def _cmd_list_apps(args, out):
    apps = all_applications()
    if args.suite:
        apps = [a for a in apps if a.suite == args.suite]
    rows = [
        (
            a.name,
            a.suite,
            a.expected_scalability_class,
            a.expected_llc_class,
            "yes" if a.bandwidth_sensitive else "no",
            f"{a.llc_apki:g}",
        )
        for a in apps
    ]
    out.write(
        format_table(
            ["application", "suite", "scalability", "LLC utility", "bw-sensitive", "APKI"],
            rows,
        )
        + "\n"
    )


def _cmd_characterize(args, out):
    characterizer = Characterizer()
    rows = []
    for name in args.apps:
        app = get_application(name)
        scal = characterizer.scalability_curve(app)
        llc = characterizer.llc_curve(app)
        rows.append(
            (
                name,
                f"{scal[max(scal)]:.2f}x",
                classify_scalability(scal),
                f"{llc[2] / llc[12]:.2f}x",
                classify_llc_utility(llc),
                f"{characterizer.prefetch_sensitivity(app):.2f}",
                f"{characterizer.bandwidth_sensitivity(app):.2f}",
            )
        )
    out.write(
        format_table(
            ["app", "speedup", "scal class", "1MB/6MB", "LLC class", "pf", "vs hog"],
            rows,
        )
        + "\n"
    )


def _cmd_describe(args, out):
    import pprint

    from repro.workloads.describe import describe, validate_model_consistency

    for name in args.apps:
        out.write(pprint.pformat(describe(name), width=90, sort_dicts=False) + "\n")
        findings = validate_model_consistency(name)
        out.write(
            ("model consistency: OK" if not findings else f"findings: {findings}")
            + "\n"
        )


def _cmd_run_solo(args, out):
    machine = Machine()
    app = get_application(args.app)
    threads = 1 if app.scalability.single_threaded else args.threads
    result = machine.run_solo(app, threads=threads, ways=args.ways)
    out.write(
        format_table(
            ["metric", "value"],
            [
                ("runtime (s)", f"{result.runtime_s:.2f}"),
                ("instructions", f"{result.instructions:.3e}"),
                ("MPKI", f"{result.mpki:.2f}"),
                ("socket energy (kJ)", f"{result.socket_energy_j / 1e3:.2f}"),
                ("wall energy (kJ)", f"{result.wall_energy_j / 1e3:.2f}"),
            ],
            title=f"{app.name}: {threads} threads, {args.ways} ways",
        )
        + "\n"
    )


def _write_runset(outcomes, capabilities, path, out, meta=None):
    from repro.analysis.store import runset_from_outcomes, save_runset

    runset = runset_from_outcomes(
        outcomes, capabilities=capabilities, meta=meta
    )
    count = save_runset(runset, path)
    out.write(f"run set: {count} records -> {path}\n")


def _consolidate_group(args, out):
    """``consolidate`` over a tenant set: a trace pair, or fg, bg and
    the ``--tenants`` of an N-tenant group on either backend. Every
    tenant set runs shared, fair and biased (a group adds cluster, and
    ``--dynamic`` the controller) and prints one row per policy."""
    from repro.core.policies import run_policy

    names = [args.fg, args.bg] + list(args.tenants or ())
    if args.backend == "trace":
        from repro.analysis.experiments import trace_group_spec
        from repro.backend import TraceBackend
        from repro.workloads.trace import trace_kinds

        kinds = tuple(trace_kinds())
        for name in names:
            if name not in kinds:
                raise ValidationError(
                    f"--backend trace takes synthetic trace kinds {kinds}; "
                    f"got {name!r}"
                )
        knobs = {
            name: default if getattr(args, name) is None
            else getattr(args, name)
            for name, default in _TRACE_KNOBS.items()
        }
        backend = TraceBackend(total_accesses=knobs["accesses"])
        group = trace_group_spec(names, **knobs)
    else:
        from repro.backend import AnalyticalBackend

        backend = AnalyticalBackend()
        group = AnalyticalBackend.group_spec(names)
    policies = ["shared", "fair", "biased"]
    if len(names) > 2:
        policies.append("cluster")
    if args.dynamic:
        policies.append("dynamic")
    outcomes = [run_policy(backend, group, p) for p in policies]
    caps = backend.capabilities()
    rows = [
        (
            o.policy,
            "/".join(str(c) for c in o.split.way_counts),
            f"{o.fg_cost:.4g}",
            f"{o.bg_rate:.4g}",
        )
        for o in outcomes
    ]
    out.write(
        format_table(
            [
                "policy",
                "ways per tenant",
                f"fg cost ({caps.fg_cost_unit})",
                f"peers ({caps.bg_rate_unit})",
            ],
            rows,
            title=" + ".join(group.names) + f" — {args.backend} backend",
        )
        + "\n"
    )
    if args.check:
        from repro.analysis.experiments import verify_trace_group_replay

        checked = sum(
            verify_trace_group_replay(backend, group, o)
            for o in outcomes
            if o.policy != "dynamic"  # timeline-driven, not one fixed split
        )
        out.write(
            f"check: group replay agrees with sequential per-tenant "
            f"reference ({checked} comparisons)\n"
        )
    if args.json:
        meta = {"source": "consolidate", "tenants": list(group.names)}
        if args.backend == "trace":
            meta["accesses"] = backend.total_accesses
        _write_runset(outcomes, caps, args.json, out, meta=meta)


def _cmd_consolidate(args, out):
    if args.check and args.backend != "trace":
        raise ValidationError("--check needs --backend trace")
    knobs = [
        "--" + name.replace("_", "-")
        for name in _TRACE_KNOBS if getattr(args, name) is not None
    ]
    if knobs and args.backend != "trace":
        raise ValidationError(f"{', '.join(knobs)} need --backend trace")
    if args.ucp and (args.tenants or args.backend != "analytical"):
        raise ValidationError(
            "--ucp needs the analytical pair (no --tenants, no "
            "--backend trace)"
        )
    if args.tenants or args.backend == "trace":
        _consolidate_group(args, out)
        return
    from repro.backend import AnalyticalBackend
    from repro.core.policies import run_policy

    machine = Machine()
    fg = get_application(args.fg)
    bg = get_application(args.bg)
    backend = AnalyticalBackend(machine)
    pair = AnalyticalBackend.group_spec([fg, bg])
    threads = 1 if fg.scalability.single_threaded else 4
    solo = machine.run_solo(fg, threads=threads)
    policies = ["shared", "fair", "biased"]
    if args.dynamic:
        policies.append("dynamic")
    outcomes = [run_policy(backend, pair, p) for p in policies]
    if args.ucp:
        from repro.core.ucp import run_ucp

        outcomes.append(run_ucp(machine, fg, bg))
    rows = [
        (
            o.policy,
            f"{o.fg_ways}/{o.bg_ways}",
            f"{o.fg_runtime_s / solo.runtime_s:.3f}",
            f"{o.bg_rate_ips / 1e9:.2f}",
        )
        for o in outcomes
    ]
    out.write(
        format_table(
            ["policy", "fg/bg ways", "fg slowdown", "bg Ginstr/s"],
            rows,
            title=f"{fg.name} (fg) + {bg.name} (bg)",
        )
        + "\n"
    )
    if args.json:
        _write_runset(
            outcomes,
            backend.capabilities(),
            args.json,
            out,
            meta={"source": "consolidate", "fg": fg.name, "bg": bg.name},
        )


def _cmd_dynamic(args, out):
    from repro.core.dynamic import DynamicPartitionController

    if len(args.bg) > 2:
        raise ValidationError(
            f"dynamic takes one or two backgrounds, got {len(args.bg)}: the "
            "foreground holds cores 0-1, leaving one core per background"
        )
    machine = Machine()
    fg = get_application(args.fg)
    backgrounds = [get_application(n) for n in args.bg]
    if len(backgrounds) == 1:
        from repro.backend import AnalyticalBackend
        from repro.core.policies import run_policy

        backend = AnalyticalBackend(machine)
        outcome = run_policy(
            backend,
            AnalyticalBackend.group_spec([fg, backgrounds[0]]),
            "dynamic",
        )
        pair = outcome.pair
        controller = outcome.measurement.extra["controller"]
        bg_rate = pair.bg_rate_ips
    else:
        from repro.sim.allocation import Allocation

        names = [b.name for b in backgrounds]
        controller = DynamicPartitionController(fg.name, names)
        masks = controller.masks()
        fg_alloc = Allocation(
            threads=1 if fg.scalability.single_threaded else 4,
            cores=(0, 1),
            mask=masks[fg.name],
        )
        bg_allocs = [
            Allocation(
                threads=1 if b.scalability.single_threaded else 2,
                cores=(2 + i,),
                mask=masks[b.name],
            )
            for i, b in enumerate(backgrounds)
        ]
        group = machine.run_group(
            fg, backgrounds, fg_alloc, bg_allocs, controller=controller
        )
        pair = group
        bg_rate = group.bg_rate_ips
    from repro.analysis.render import render_controller_actions

    out.write(
        render_controller_actions(controller.actions, limit=args.actions)
        + "\n"
    )
    out.write(
        f"fg runtime {pair.fg.runtime_s:.1f} s; background {bg_rate / 1e9:.2f} "
        f"Ginstr/s; {len(controller.actions)} reallocations\n"
    )


def _cmd_figure(args, out):
    from repro.analysis import experiments as ex
    from repro.analysis import render
    from repro.workloads.registry import REPRESENTATIVES

    from repro.exec import resolve_workers

    machine = Machine()
    characterizer = Characterizer(machine)
    study = ConsolidationStudy(machine)
    subset = sorted(REPRESENTATIVES.values())
    workers = args.workers
    if args.id in ("9", "10", "11", "13", "headline") and resolve_workers(workers) > 1:
        study.warm(workers=workers)
    dispatch = {
        "1": lambda: render.render_fig01(
            ex.fig01_thread_scalability(characterizer)
        ),
        "2": lambda: render.render_fig02(ex.fig02_llc_sensitivity(characterizer)),
        "3": lambda: render.render_sensitivity(
            ex.fig03_prefetch_sensitivity(characterizer),
            "Fig. 3 — prefetcher sensitivity",
            "time(on)/time(off)",
        ),
        "4": lambda: render.render_sensitivity(
            ex.fig04_bandwidth_sensitivity(characterizer),
            "Fig. 4 — bandwidth sensitivity",
            "time(hog)/time(alone)",
        ),
        "5": lambda: render.render_fig05(ex.fig05_clustering(characterizer)),
        "6": lambda: render.render_fig06(
            ex.fig06_allocation_space(
                characterizer,
                thread_counts=(1, 2, 4, 8),
                way_counts=(2, 4, 6, 9, 12),
                workers=workers,
            )
        ),
        "7": lambda: render.render_fig06(
            ex.fig06_allocation_space(
                characterizer,
                thread_counts=(1, 2, 4, 8),
                way_counts=(2, 4, 6, 9, 12),
                workers=workers,
            )
        ),
        "8": lambda: render.render_fig08(
            ex.fig08_pairwise_slowdowns(machine, subset, workers=workers)
        ),
        "9": lambda: render.render_policy_rows(
            ex.fig09_partitioning_policies(study), "Fig. 9 — fg slowdown by policy"
        ),
        "10": lambda: render.render_policy_rows(
            ex.fig10_consolidation_energy(study),
            "Fig. 10 — energy vs sequential",
        ),
        "11": lambda: render.render_policy_rows(
            ex.fig11_weighted_speedup(study), "Fig. 11 — weighted speedup",
            value_format="{:.2f}",
        ),
        "12": lambda: render.render_fig12(
            ex.fig12_mcf_phases(machine, way_counts=(2, 9, 12))
        ),
        "13": lambda: render.render_fig13(
            ex.fig13_dynamic_background_throughput(study)
        ),
        "headline": lambda: render.render_headline(ex.headline_numbers(study)),
    }
    if args.id not in dispatch:
        raise ReproError(f"unknown figure {args.id!r}; pick 1..13 or 'headline'")
    out.write(dispatch[args.id]() + "\n")


def _cmd_report(args, out):
    from repro.analysis.report import generate_report

    text = generate_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        out.write(f"report written to {args.output}\n")
    else:
        out.write(text + "\n")


def _cmd_evaluate(args, out):
    from repro.analysis.batch import EvaluationRunner

    runner = EvaluationRunner(args.output, workers=args.workers)
    written = runner.run(stages=args.stages, force=args.force)
    for stage, path in written.items():
        out.write(f"{stage}: {path}\n")


def _trace_factory(args, length=None, tid=0):
    """A picklable factory for the CLI-selected trace (``functools.partial``
    of the registry constructor, so process-pool checks can ship it)."""
    from repro.analysis.experiments import trace_kind_factory

    return trace_kind_factory(
        args.trace,
        length if length is not None else args.accesses,
        footprint_mb=args.footprint_mb,
        alpha=args.alpha,
        seed=args.seed,
        tid=tid,
    )


def _cmd_trace_sweep(args, out):
    from repro.analysis.experiments import (
        background_factories,
        trace_way_utility,
        verify_trace_domains,
    )
    from repro.analysis.render import render_trace_sweep
    from repro.cache.profile import WaySweep, verify_profile

    if args.domains != 2 and not args.co_run:
        raise ValidationError("--domains needs --co-run")
    way_counts = (
        [int(w) for w in args.ways.split(",")] if args.ways else None
    )
    factory = _trace_factory(args)
    if args.co_run:
        data = trace_way_utility(fg_factory=factory, domains=args.domains)
        out.write(render_trace_sweep(data) + "\n")
    else:
        from repro.workloads.tracepack import get_pack

        curve = WaySweep().run_pack(get_pack(factory()))[0]
        data = {"curves": {args.trace: curve}}
        out.write(
            render_trace_sweep(
                data, title=f"Way-utility curve — {args.trace} (one profiled pass)"
            )
            + "\n"
        )
    if args.check:
        if args.co_run:
            factories = [factory] + [
                f for _, f, _, _ in background_factories(args.domains)
            ]
            cells = verify_trace_domains(
                factories, way_counts=way_counts, workers=args.workers
            )
            out.write(
                f"check: profiled hits match per-mask re-simulation for "
                f"{len(cells)} domains x {len(cells[0])} allocations\n"
            )
        else:
            rows = verify_profile(
                factory, way_counts=way_counts, use_pack=True
            )
            out.write(
                f"check: profiled hits match per-mask re-simulation at "
                f"{len(rows)} allocations\n"
            )
    if args.json:
        from repro.analysis.store import save_runset

        count = save_runset(_sweep_runset(data, args), args.json)
        out.write(f"run set: {count} records -> {args.json}\n")
    if args.engine_stat:
        from repro.perf.stat import format_engine_stat

        out.write(format_engine_stat() + "\n")


def _sweep_runset(data, args):
    """Per-allocation profile scores as a run set (one record per split,
    ``policy='static-NN'``), so two sweeps — e.g. native vs pure-Python
    kernels — can be diffed with ``repro compare``."""
    from repro import __version__
    from repro.analysis.store import RunRecord, RunSet
    from repro.cache.profile import LLC_NUM_WAYS

    curves = data["curves"]
    records = []
    if args.co_run:
        fg_curve = curves["fg"]
        bg_curve = curves["bg"]
        for fg_ways in range(1, LLC_NUM_WAYS):
            bg_ways = LLC_NUM_WAYS - fg_ways
            records.append(
                RunRecord(
                    policy=f"static-{fg_ways:02d}",
                    backend="trace",
                    fg=args.trace,
                    bg="bg",
                    fg_ways=fg_ways,
                    bg_ways=bg_ways,
                    metrics={
                        "fg_cost": float(fg_curve.misses(fg_ways)),
                        "bg_rate": float(bg_curve.hits(bg_ways)),
                        "fg_ways": float(fg_ways),
                        "bg_ways": float(bg_ways),
                    },
                    units={"fg_cost": "misses", "bg_rate": "hits"},
                    provenance={"source": "profile", "domains": args.domains},
                )
            )
    else:
        curve = curves[args.trace]
        for ways in range(1, LLC_NUM_WAYS + 1):
            records.append(
                RunRecord(
                    policy=f"static-{ways:02d}",
                    backend="trace",
                    fg=args.trace,
                    bg="-",
                    fg_ways=ways,
                    bg_ways=LLC_NUM_WAYS - ways,
                    metrics={
                        "fg_cost": float(curve.misses(ways)),
                        "fg_ways": float(ways),
                    },
                    units={"fg_cost": "misses"},
                    provenance={"source": "profile"},
                )
            )
    return RunSet(
        records=records,
        backend="trace",
        model_version=__version__,
        meta={"source": "trace-sweep", "trace": args.trace},
    )


def _cmd_trace_dynamic(args, out):
    import functools

    from repro.analysis.render import render_dynamic_timeline
    from repro.backend import TenantSet, TraceBackend
    from repro.core.policies import run_policy
    from repro.sim.trace_engine import TraceWorkload
    from repro.util.units import MB
    from repro.workloads.trace import make_trace

    backend = TraceBackend(
        total_accesses=args.accesses,
        epoch_accesses=args.epoch_accesses,
        dynamic_total_accesses=args.total_accesses,
    )
    pair = TenantSet([
        TraceWorkload("fg", _trace_factory(args, tid=0), tid=0, think_cycles=6),
        TraceWorkload(
            "bg",
            functools.partial(
                make_trace, "stream", args.accesses, int(8 * MB), tid=4
            ),
            tid=4,
            think_cycles=2,
        ),
    ])
    outcome = run_policy(backend, pair, "dynamic")
    result = outcome.measurement.extra["result"]
    out.write(render_dynamic_timeline(result, limit=args.actions) + "\n")
    if args.json:
        _write_runset(
            [outcome],
            backend.capabilities(),
            args.json,
            out,
            meta={
                "source": "trace-dynamic",
                "trace": args.trace,
                "total_accesses": args.total_accesses,
            },
        )
    if args.engine_stat:
        from repro.perf.stat import format_engine_stat

        out.write(format_engine_stat() + "\n")


def _cmd_trace_cluster(args, out):
    from repro.analysis.experiments import (
        trace_group_spec,
        verify_trace_group_replay,
    )
    from repro.backend import TraceBackend
    from repro.core.policies import run_policy

    backend = TraceBackend(total_accesses=args.accesses)
    group = trace_group_spec(
        args.tenants,
        accesses=args.accesses,
        footprint_mb=args.footprint_mb,
        alpha=args.alpha,
        seed=args.seed,
        bg_footprint_mb=args.bg_footprint_mb,
    )
    outcome = run_policy(backend, group, "cluster")
    plan = outcome.plan
    split = outcome.split
    m = outcome.measurement
    rows = [
        (
            name,
            plan.classes[name] if plan else "?",
            str(split.way_counts[i]),
            f"0x{split.mask_bits[i]:03x}",
            f"{m.costs[i]:.4f}",
            f"{m.rates[i]:.4f}",
        )
        for i, name in enumerate(outcome.names)
    ]
    out.write(
        format_table(
            [
                "tenant",
                "class",
                "ways",
                "mask",
                "cyc/access",
                "acc/kcycle",
            ],
            rows,
            title="LFOC-style cluster apportioning — trace backend",
        )
        + "\n"
    )
    if plan:
        clusters = ", ".join(
            f"{label}[{'+'.join(members)}]={ways}w"
            for label, members, ways in plan.clusters
        )
        out.write(f"clusters (bottom-up): {clusters}\n")
    if args.check:
        checked = verify_trace_group_replay(backend, group, outcome)
        out.write(
            f"check: batched group replay agrees with sequential "
            f"per-tenant reference ({checked} comparisons)\n"
        )
    if args.json:
        _write_runset(
            [outcome],
            backend.capabilities(),
            args.json,
            out,
            meta={
                "source": "trace-cluster",
                "tenants": list(group.names),
                "accesses": args.accesses,
            },
        )


def _is_runset_side(path):
    """True when ``path`` is run-set shaped: a run-set JSON file, or a
    directory of run-set shard files (a campaign store)."""
    import json
    import os

    if os.path.isfile(path):
        return True
    if not os.path.isdir(path):
        return False
    from repro.analysis.store import list_runset_shards

    for shard in list_runset_shards(path):
        try:
            with open(shard) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return False
        return isinstance(payload, dict) and "runset_version" in payload
    return False


def _cmd_compare(args, out):
    from repro.analysis.compare import diff_runsets, format_deltas, regressions

    if _is_runset_side(args.before) or _is_runset_side(args.after):
        # Run-set JSON files or campaign stores (possibly mixed).
        moved, checked, unmatched = diff_runsets(
            args.before, args.after, tolerance=args.tolerance
        )
        if unmatched:
            out.write(
                "only on one side: "
                + ", ".join(
                    "{}:{}".format(key[0], "+".join(key[1:]))
                    for key in unmatched
                )
                + "\n"
            )
        if moved:
            out.write(format_deltas(moved) + "\n")
            out.write(
                f"{len(moved)} of {checked} comparable metrics moved "
                "beyond tolerance\n"
            )
        else:
            out.write(
                f"all {checked} comparable metrics agree within "
                f"{args.tolerance:.0%}\n"
            )
        if args.fail_on_moved and (moved or unmatched):
            raise SystemExit(1)
        return
    moved, checked = regressions(
        args.before, args.after, stages=args.stages, tolerance=args.tolerance
    )
    if moved:
        out.write(format_deltas(moved) + "\n")
        out.write(f"{len(moved)} of {checked} metrics moved beyond tolerance\n")
    else:
        out.write(f"all {checked} metrics agree within {args.tolerance:.0%}\n")
    if args.fail_on_moved and moved:
        raise SystemExit(1)


def _load_campaign_manifest(path):
    """Load a manifest; unknown keys are a *usage* error (exit 2), the
    same contract as any unknown command-line choice."""
    from repro.campaign import UnknownManifestKey, load_manifest

    try:
        return load_manifest(path)
    except UnknownManifestKey as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _campaign_axis_lines(cells):
    from repro.campaign.manifest import axis_counts

    lines = []
    counts = axis_counts(cells)
    for axis in ("backend", "policy", "pair", "tenants", "geometry"):
        if axis not in counts:
            continue
        rendered = ", ".join(
            f"{value}={count}" for value, count in sorted(counts[axis].items())
        )
        lines.append(f"  by {axis}: {rendered}")
    return lines


def _cmd_campaign_plan(args, out):
    from repro.campaign import expand_manifest, plan_shards
    from repro.campaign.planner import DEFAULT_SHARD_SIZE, SHARD_KINDS

    manifest = _load_campaign_manifest(args.manifest)
    cells = expand_manifest(manifest)
    done_ids = ()
    if args.store:
        from repro.campaign.runner import _existing_records

        done_ids = _existing_records(args.store)
    plan = plan_shards(
        cells,
        done_ids=done_ids,
        shard_size=args.shard_size or DEFAULT_SHARD_SIZE,
    )
    out.write(f"campaign '{manifest.name}': {len(cells)} cells\n")
    for line in _campaign_axis_lines(cells):
        out.write(line + "\n")
    for kind in SHARD_KINDS:
        shards = [shard for name, shard in plan.shards if name == kind.name]
        counts = {"cells": sum(map(len, shards)), "shards": len(shards)}
        out.write("  " + kind.line.format(**counts) + "\n")
    if args.store:
        out.write(f"  already stored: {len(plan.skipped)} cells skipped\n")
    out.write(f"  estimated shards: {len(plan.shards)}\n")


def _cmd_campaign_run(args, out):
    import time

    from repro.campaign import expand_manifest, run_campaign, verify_campaign
    from repro.campaign.runner import DEFAULT_MAX_ATTEMPTS

    manifest = _load_campaign_manifest(args.manifest)
    cells = expand_manifest(manifest)
    start = time.perf_counter()
    result = run_campaign(
        manifest,
        args.store,
        cells=cells,
        resume=args.resume,
        shard_size=args.shard_size,
        threads=args.threads,
        workers=args.workers,
        max_attempts=(
            args.max_attempts
            if args.max_attempts is not None
            else DEFAULT_MAX_ATTEMPTS
        ),
        stop_after_shards=args.stop_after_shards,
    )
    elapsed = time.perf_counter() - start
    out.write(
        f"campaign '{manifest.name}': {result.cells_run} cells run, "
        f"{result.cells_skipped} skipped, {result.shards_written} shards "
        f"written in {elapsed:.2f}s"
        + (f" ({result.retries} retries)" if result.retries else "")
        + (" [stopped early]" if result.stopped_early else "")
        + "\n"
    )
    if args.json:
        from repro.analysis.store import load_runset_dir, save_runset

        merged = load_runset_dir(args.store)
        merged.meta["campaign"] = manifest.name
        count = save_runset(merged, args.json)
        out.write(f"run set: {count} records -> {args.json}\n")
    if args.check:
        if result.stopped_early:
            raise ValidationError(
                "--check requires a complete campaign; this run stopped "
                "early (resume it first)"
            )
        checked = verify_campaign(
            manifest, args.store, cells=cells, stride=args.check_stride
        )
        out.write(
            f"check: {checked} cells re-run sequentially, all metrics "
            "exact\n"
        )
    if args.engine_stat:
        from repro.perf.stat import format_engine_stat

        out.write(format_engine_stat() + "\n")


def _cmd_campaign_summarize(args, out):
    from repro.campaign import summarize_campaign
    from repro.campaign.summary import format_campaign_summary

    summary = summarize_campaign(args.store)
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        out.write(f"summary -> {args.json}\n")
        return
    out.write(format_campaign_summary(summary) + "\n")


def _cmd_campaign(args, out):
    handler = {
        "plan": _cmd_campaign_plan,
        "run": _cmd_campaign_run,
        "summarize": _cmd_campaign_summarize,
    }[args.campaign_command]
    handler(args, out)


_COMMANDS = {
    "campaign": _cmd_campaign,
    "compare": _cmd_compare,
    "describe": _cmd_describe,
    "evaluate": _cmd_evaluate,
    "list-apps": _cmd_list_apps,
    "report": _cmd_report,
    "characterize": _cmd_characterize,
    "run-solo": _cmd_run_solo,
    "consolidate": _cmd_consolidate,
    "dynamic": _cmd_dynamic,
    "figure": _cmd_figure,
    "trace-sweep": _cmd_trace_sweep,
    "trace-dynamic": _cmd_trace_dynamic,
    "trace-cluster": _cmd_trace_cluster,
}


def main(argv=None, out=None):
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args, out)
        out.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop quietly, and
        # point stdout at devnull so the interpreter's exit-time flush
        # of the unsent output cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
