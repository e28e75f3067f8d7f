"""Layered campaign benchmark: five workloads through the public campaign API.

Usage (from the repository root)::

    python bench/run.py [--workload W] [--seed N] [--seconds S | --repeats N]
                        [--trace [0|1]] [--against OLD_RESULTS.json]

Each sample is a fresh ``bench/sample.py`` process; samples run one
after another (a closed loop with one client), each with
``REPRO_NATIVE_THREADS=min(nproc, 2)`` and ``REPRO_WORKERS=1``. An
untimed prepare step first compiles the kernels and trace packs into
``bench/.cache`` and builds the stores ``store-readback`` reads. Every
end-to-end metric prints as ``workload metric median unit`` with its
quartiles and sample count; with ``--trace`` one extra traced sample
per workload gives the per-layer metrics and writes
``bench/out/<workload>.spans.jsonl``. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every record checked out (and, with
``--against``, no metric got worse and no counter moved).
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import report
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Host speed on a shared machine swings by tens of percent within
# seconds, so each sample process times several repetitions after one
# set-up and every run takes the median of all of them; at least three
# processes give setup_s a median of three.
REPS = 4
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 850
MAX_ATTEMPTS = 2


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def source_digest():
    """A digest of the program source under ``src/``.

    Prepared packs, kernels and stores are keyed by it, so a checkout
    that runs two versions of the program one after the other prepares
    each version's own before timing starts.
    """
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Bench:
    """Paths, settings and the sample spawner of one invocation."""

    def __init__(self, seed, scale, work_dir):
        self.seed = seed
        self.scale = scale
        self.source = source_digest()
        self.cache = work_dir / ".cache"
        self.out = work_dir / "out"
        for path in (self.cache / "tmp", self.cache / "traces", self.out):
            path.mkdir(parents=True, exist_ok=True)
        self.threads = min(_usable_cpus(), 2)

    def env(self, threads=None):
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONPYCACHEPREFIX=str(self.cache / "pycache"),
            REPRO_TRACE_CACHE=str(self.cache / "traces"),
            REPRO_NATIVE_THREADS=str(threads or self.threads),
            REPRO_WORKERS="1",
            TMPDIR=str(self.cache / "tmp"),
        )
        return env

    def spawn(self, workload, extra=(), threads=None, timeout=SAMPLE_TIMEOUT_S):
        """Run one sample process; ``(measurements or None, error text)``."""
        spawn = time.monotonic()
        command = [
            sys.executable, str(BENCH / "sample.py"),
            "--workload", workload, "--seed", str(self.seed),
            "--scale", repr(self.scale), "--spawn", repr(spawn), *extra,
        ]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env(threads), capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout} s"
        if proc.returncode != 0:
            return None, proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
        lines = proc.stdout.strip().splitlines()
        return (json.loads(lines[-1]) if lines else {}), ""

    def prepare(self, workload):
        """The untimed one-off work; returns the readback stores or None."""
        version = f"{self.source}-seed{self.seed}-x{self.scale:g}"
        key = f"{workload}-{version}"
        marker = self.cache / "prepared" / key
        stores = None
        if workload == "store-readback":
            base = self.cache / "stores" / version
            stores = (base / "threads1", base / "threads2")
        if marker.exists():
            return stores
        builds = zip((1, 2), stores) if stores else [(None, self.cache / "tmp" / key)]
        for threads, store in builds:
            _, error = self.spawn(
                workload, ["--build-store", str(store)], threads=threads,
                timeout=PREPARE_TIMEOUT_S,
            )
            if error:
                raise RuntimeError(f"prepare {workload}: {error}")
        if not stores:
            shutil.rmtree(self.cache / "tmp" / key, ignore_errors=True)
        marker.parent.mkdir(exist_ok=True)
        marker.touch()
        return stores

    def sample(self, workload, index, stores, verify, spans=None):
        """One sample record: start, end, attempt and errors, AutoPerf style."""
        extra = [] if spans else ["--reps", str(REPS)]
        if stores:
            extra += ["--stores", *map(str, stores)]
        if verify:
            extra.append("--verify")
        if spans:
            extra += ["--spans", str(spans)]
        record = {"index": index, "traced": bool(spans), "errors": []}
        for attempt in range(1, MAX_ATTEMPTS + 1):
            record["attempt"] = attempt
            record["start"] = _now()
            started = time.monotonic()
            measured, error = self.spawn(workload, extra)
            record["wall_s"] = time.monotonic() - started
            record["end"] = _now()
            if measured is not None:
                record.update(measured)
                record["errors"] = record["errors"] + measured["errors"]
                if attempt > 1:  # every cell of a retried sample counts
                    record["failed"] = record["attempted"]
                record["status"] = "ok"
                return record
            record["errors"].append(error)
        record.update(status="error", attempted=1, failed=1)
        return record


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def run_workload(bench, workload, seconds, repeats, trace):
    print(f"[bench] {workload}: prepare", file=sys.stderr)
    stores = bench.prepare(workload)
    samples = []
    started = time.monotonic()
    while True:
        if repeats is not None:
            if len(samples) >= repeats:
                break
        elif len(samples) >= MIN_SAMPLES:
            typical = statistics.median(s["wall_s"] for s in samples)
            if time.monotonic() - started + typical > seconds:
                break
        samples.append(bench.sample(workload, len(samples), stores, not samples))
    traced = None
    if trace:
        traced = bench.sample(
            workload, len(samples), stores, True,
            spans=bench.out / f"{workload}.spans.jsonl",
        )
    return aggregate(workload, samples, traced, bench)


def aggregate(workload, samples, traced, bench):
    """Medians, correctness and per-layer numbers of one workload."""
    checks = []
    everything = samples + ([traced] if traced else [])
    ok = [s for s in everything if s["status"] == "ok"]
    for s in everything:
        checks += [f"sample {s['index']}: {e}" for e in s["errors"] if e]
    if ok:
        for s in ok[1:]:
            moved = report.differing(s["cell_hashes"], ok[0]["cell_hashes"])
            if moved:
                s["failed"] += moved
                checks.append(f"sample {s['index']}: {moved} cells differ from sample 0")
        golden = _baseline()["golden_digests"]
        if bench.seed == golden["seed"] and bench.scale == 1.0:
            for s in ok:
                if s["digest"] != golden["digests"].get(workload):
                    s["failed"] += s["cells"]
                    checks.append(f"sample {s['index']}: digest differs from the golden digest")
        for s in ok[1:]:
            moved = sorted(
                k for k in s["counters"] if s["counters"][k] != ok[0]["counters"][k]
            )
            if moved:
                checks.append(f"sample {s['index']}: counters differ: {', '.join(moved)}")
    untraced = [s for s in samples if s["status"] == "ok"]
    metrics = {}
    if untraced:
        for name in ("setup_s", "peak_rss_mb"):  # one value per process
            metrics[name] = report.summarize([s[name] for s in untraced])
        for name in ("cells_per_s", "sim_accesses_per_s"):  # per repetition
            metrics[name] = report.summarize(
                [value for s in untraced for value in s[name]]
            )
    attempted = sum(s["attempted"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    result = {
        "correct": failed == 0 and not checks and len(ok) == len(everything),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "checks": checks,
        "metrics": metrics,
        "counters": ok[0]["counters"] if ok else {},
        "digest": ok[0]["digest"] if ok else None,
        "host": next((s["host"] for s in ok if "host" in s), None),
        "samples": [
            {k: v for k, v in s.items() if k not in ("cell_hashes", "host")}
            for s in everything
        ],
    }
    if traced and traced["status"] == "ok" and untraced:
        layers = dict(traced["layers"])
        # The traced repetition is the first of a fresh process, so it
        # is compared with the first repetitions of the untraced ones.
        layers["bench.trace_overhead"] = traced["run_s"][0] / statistics.median(
            s["run_s"][0] for s in untraced
        ) - 1.0
        layers["sim_accesses_per_s"] = metrics["sim_accesses_per_s"]["median"]
        result["layers"] = layers
        result["run_id"] = traced["run_id"]
    return result


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _spec():
    return _load_json(ROOT / "BENCHMARK.json")


def _baseline():
    return _load_json(BENCH / "baseline.json")


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure this long per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--repeats", type=int,
                        help="run exactly this many untraced samples instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--against", help="a parent results JSON to compare with")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def main(argv=None, scale=1.0, work_dir=None):
    """Run the benchmark; ``scale`` and ``work_dir`` are for the tests."""
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = _spec()
    parent = _load_json(args.against) if args.against else None
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bench = Bench(args.seed, scale, Path(work_dir) if work_dir else BENCH)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {
        "seed": args.seed,
        "scale": scale,
        "trace": bool(args.trace),
        "provenance": {
            "git_commit": _git_commit(),
            "source_digest": bench.source,
            "nproc": os.cpu_count(),
            "usable_cpus": _usable_cpus(),
            "native_threads": bench.threads,
            "workers": 1,
            "argv": sys.argv[1:] if argv is None else list(argv),
        },
        "workloads": {
            name: run_workload(bench, name, seconds, args.repeats, args.trace)
            for name in names
        },
    }
    hosts = [w.pop("host") for w in results["workloads"].values()]
    results["provenance"]["host"] = next((h for h in hosts if h), None)
    (bench.out / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n"
    )

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, result in results["workloads"].items():
        for check in result["checks"]:
            print(f"{name} CHECK: {check}")
        for metric in spec["end_to_end"]:
            if metric["name"] in result["metrics"]:
                print(report.metric_row(
                    name, metric["name"], result["metrics"][metric["name"]],
                    metric["unit"],
                ))
        if name in workloads.TRACE_WORKLOADS and "sim_accesses_per_s" in result["metrics"]:
            print(report.metric_row(
                name, "sim_accesses_per_s", result["metrics"]["sim_accesses_per_s"],
                units["sim_accesses_per_s"],
            ))
        print(f"{name} failed_ratio {result['failed_ratio']:.6g} failed/attempted "
              f"({result['failed']} of {result['attempted']})")
        for layer, value in sorted(result.get("layers", {}).items()):
            print(f"{name} {layer} {value:.6g} {units[layer]}")

    flagged = False
    if parent is not None:
        rows, flagged = report.compare(parent, results, spec["end_to_end"])
        for row in rows:
            print(row)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, result in results["workloads"].items():
        source = result.get("layers", {}) if args.trace else {
            k: v["median"] for k, v in result["metrics"].items()
        }
        for metric in wanted:
            if metric["name"] in source:
                key = metric["name"] if args.workload else f"{name}.{metric['name']}"
                metrics[key] = {"value": source[metric["name"]], "unit": metric["unit"]}
    correct = all(r["correct"] for r in results["workloads"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results["workloads"].values()),
        "failed": sum(r["failed"] for r in results["workloads"].values()),
        "metrics": metrics,
    }))
    return 0 if correct and not flagged else 1


if __name__ == "__main__":
    sys.exit(main())
