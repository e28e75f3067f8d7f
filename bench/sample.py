"""One benchmark sample: a fresh process that sets up once, runs one
workload through the public campaign API ``--reps`` times, checks the
records of every repetition, and prints its measurements as one JSON
line on stdout.

``run.py`` spawns it; the arguments are an internal protocol::

    python bench/sample.py --workload W --seed N --scale X --spawn T
        [--reps R] [--stores A B] [--spans PATH] [--verify]
        [--build-store DIR]

``--spawn`` is the parent's ``time.monotonic()`` just before the spawn,
so ``setup_s`` covers interpreter start, imports, kernel load with its
threading probe, manifest expansion and opening the warm packs. A
traced sample (``--spans``) runs one repetition inside the root span.
``--build-store`` runs the campaign once into DIR and exits (the
untimed prepare step).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import uuid

VERIFY_CELLS = 12  # cells one verifying sample reruns on the reference path


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawn", type=float)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--stores", nargs=2)
    parser.add_argument("--spans")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--build-store")
    return parser.parse_args(argv)


def record_lines(by_cell):
    """``{cell_id: "cell_id canonical-metrics-json"}`` for a store."""
    return {
        cell_id: f"{cell_id} {json.dumps(record.metrics, sort_keys=True)}"
        for cell_id, record in by_cell.items()
    }


def digest(lines):
    """The workload digest: sha256 over the sorted record lines."""
    return hashlib.sha256("\n".join(sorted(lines.values())).encode()).hexdigest()


def cell_hashes(lines):
    return {
        cell_id: hashlib.sha256(line.encode()).hexdigest()[:16]
        for cell_id, line in lines.items()
    }


def main(argv=None):
    entered = time.monotonic()
    args = _parse(argv)
    spawn = args.spawn if args.spawn is not None else entered

    import repro.analysis.compare as compare
    import repro.campaign as campaign
    from repro.cache import native
    from repro.campaign.runner import _materialize_packs
    from repro.perf import engine_counters as ec
    from repro.util.errors import ValidationError

    import spans
    import workloads
    from report import differing

    for kernel in ("batchwalk", "epochbatch"):
        native.threading_status(kernel)  # loads the kernel, runs the probe

    workload, readback = args.workload, args.workload == "store-readback"
    if args.build_store:
        manifest = campaign.manifest_from_dict(
            workloads.manifest(workload, args.seed, args.scale)
        )
        shutil.rmtree(args.build_store, ignore_errors=True)
        campaign.run_campaign(manifest, args.build_store)
        return 0

    rounds = workloads.readback_rounds(args.scale) if readback else 1
    timings = {}

    def setup():
        manifest = campaign.manifest_from_dict(
            workloads.manifest(workload, args.seed, args.scale)
        )
        cells = campaign.expand_manifest(manifest)
        if not readback:
            _materialize_packs(cells)  # opens the packs prepare compiled
        timings["ready"] = time.monotonic()
        return manifest, cells

    def run_once(manifest, cells, store):
        """One timed repetition; returns ``(run_s, problems)``."""
        problems = {}
        timings["counters"] = ec.engine_counters().snapshot()
        start = time.monotonic()
        if not readback:
            campaign.run_campaign(manifest, store, cells=cells)
            run_s = time.monotonic() - start
            campaign.summarize_campaign(store)
            return run_s, problems
        problems.update(replayed=0, summary_mismatch=0, moved=0)
        for _ in range(rounds):
            round_cells = campaign.expand_manifest(manifest)
            result = campaign.run_campaign(
                manifest, store, cells=round_cells, resume=True
            )
            problems["replayed"] += result.cells_run
            summary = campaign.summarize_campaign(store)
            problems["summary_mismatch"] += abs(summary["records"] - len(cells))
            moved, _, unmatched = compare.diff_runsets(
                store, args.stores[1], tolerance=0.0
            )
            problems["moved"] += len(moved) + len(unmatched)
        return time.monotonic() - start, problems

    def setup_and_run(store):
        manifest, cells = setup()
        return manifest, cells, run_once(manifest, cells, store)

    def check(store, cells, problems):
        """Record checks keyed by cell_id; returns the record lines."""
        _, by_cell = campaign.load_campaign_store(store)
        expected = {cell.cell_id for cell in cells}
        problems["missing"] = len(expected - set(by_cell))
        problems["unexpected"] = len(set(by_cell) - expected)
        problems["retried"] = sum(
            1
            for record in by_cell.values()
            if record.provenance.get("attempts", 1) > 1
        )
        lines = record_lines(by_cell)
        if readback:
            _, other = campaign.load_campaign_store(args.stores[1])
            problems["stores_differ"] = differing(
                cell_hashes(lines), cell_hashes(record_lines(other))
            )
        return lines

    tracer = None
    if args.spans:
        tracer = spans.Tracer(f"{workload}-{args.seed}-{uuid.uuid4().hex[:12]}")
    else:
        manifest, cells = setup()
    reps = []
    errors = []
    verified = failed = 0
    store = args.stores[0] if readback else None
    try:
        for _ in range(1 if tracer else args.reps):
            if not readback:  # a fresh store per repetition; keep the last
                if store:
                    shutil.rmtree(store)
                store = tempfile.mkdtemp(prefix="store-")
            before = ec.engine_counters().snapshot()
            if tracer is None:
                run_s, problems = run_once(manifest, cells, store)
            else:
                tracer.install()
                try:
                    manifest, cells, (run_s, problems) = tracer.root(
                        setup_and_run, store
                    )
                finally:
                    tracer.restore()
            counters, traced_counters = (
                {
                    event: int(value)
                    for event, value in ec.engine_counters().delta(since).items()
                }
                for since in (timings["counters"], before)
            )
            lines = check(store, cells, problems)
            reps.append({
                "run_s": run_s,
                "problems": problems,
                "counters": counters,
                "hashes": cell_hashes(lines),
                "digest": digest(lines),
            })
        # Read before verification reruns cells, which grows the heap.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        store_bytes = sum(
            os.path.getsize(os.path.join(store, name)) for name in os.listdir(store)
        )
        if args.verify:
            try:
                verified = campaign.verify_campaign(
                    manifest, store, cells=cells,
                    stride=max(1, len(cells) // VERIFY_CELLS),
                )
            except ValidationError as exc:
                failed += 1
                errors.append(f"verify_campaign: {exc}")
    finally:
        if store and not readback:
            shutil.rmtree(store, ignore_errors=True)

    first = reps[0]
    for index, rep in enumerate(reps):
        failed += sum(rep["problems"].values())
        if rep["counters"] != first["counters"]:
            errors.append(f"repetition {index}: engine counters differ from repetition 0")
        moved = differing(rep["hashes"], first["hashes"])
        if moved:
            failed += moved
            errors.append(f"repetition {index}: {moved} cells differ from repetition 0")
    attempted = rounds * len(cells)
    out = {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "cells": len(cells),
        "setup_s": timings["ready"] - spawn,
        "run_s": [rep["run_s"] for rep in reps],
        "cells_per_s": [attempted / rep["run_s"] for rep in reps],
        "sim_accesses_per_s": [
            first["counters"]["trace_accesses"] / rep["run_s"] for rep in reps
        ],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted * len(reps),
        "failed": failed,
        "problems": first["problems"],
        "errors": errors,
        "digest": first["digest"],
        "cell_hashes": first["hashes"],
        "counters": first["counters"],
        "verified_cells": verified,
    }
    if args.verify:
        from repro.perf.host import host_provenance

        out["host"] = host_provenance()
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, traced_counters)
        layers["analysis.store_bytes"] = store_bytes
        layers["bench.verified_cells"] = verified
        attributed = sum(spans.self_times(tracer.spans).values())
        wall = layers["bench.traced_wall_s"]
        if abs(attributed - wall) > 0.01 * wall:
            errors.append(
                f"layer self times sum to {attributed:.6f} s, traced wall "
                f"is {wall:.6f} s"
            )
        out["layers"] = layers
        out["run_id"] = tracer.run_id
        tracer.write_jsonl(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
