"""Sample statistics, printed rows, and the ``--against`` comparison."""

import statistics

# Engine counters that must repeat exactly between two runs of the same
# seed and scale; a change that moves one is flagged for review.
COUNT_KEYS = (
    "trace_accesses",
    "batch_calls",
    "batch_cells",
    "dynbatch_calls",
    "dynbatch_cells",
    "grid_calls",
    "grid_cells",
    "campaign_shards",
    "campaign_cells_run",
)


def differing(a, b):
    """Cells whose record hash differs between two ``{cell_id: hash}`` maps."""
    return sum(1 for cell in set(a) | set(b) if a.get(cell) != b.get(cell))


def summarize(values):
    """Median, quartiles and count of one metric's samples."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def spread(stats):
    """Quartile distance as a share of the median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def metric_row(workload, name, stats, unit):
    return (
        f"{workload} {name} {stats['median']:.6g} {unit} "
        f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})"
    )


def verdict(old, new, better, bound):
    """``better``, ``worse``, ``within bound`` or ``unresolved``.

    A spread wider than the bound on either side leaves the metric
    unresolved, unless every new sample beats every old one.
    """
    sign = 1.0 if better == "higher" else -1.0
    if max(spread(old), spread(new)) > bound:
        if all(
            sign * n > sign * o for n in new["values"] for o in old["values"]
        ):
            return "better"
        return "unresolved"
    gain = sign * (new["median"] - old["median"]) / old["median"]
    if gain < -bound:
        return "worse"
    if gain > spread(old):
        return "better"
    return "within bound"


def _fmt(stats):
    return f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}]"


def compare(old, new, end_to_end):
    """Rows comparing two results files, and whether any row is flagged.

    One row per workload and end-to-end metric (parent then change
    median with quartiles, then the verdict), the failed ratio, and the
    engine counters, which must match exactly.
    """
    rows = []
    flagged = False
    for workload, after in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            rows.append(f"{workload}: not in the parent results")
            continue
        for metric in end_to_end:
            name = metric["name"]
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            result = verdict(
                before["metrics"][name],
                after["metrics"][name],
                metric["better"],
                metric["bound"],
            )
            flagged |= result == "worse"
            rows.append(
                f"{workload} {name} parent {_fmt(before['metrics'][name])} "
                f"change {_fmt(after['metrics'][name])} {metric['unit']}: "
                f"{result} (bound {metric['bound']:.0%})"
            )
        old_ratio, new_ratio = before["failed_ratio"], after["failed_ratio"]
        worse = new_ratio > old_ratio
        flagged |= worse
        rows.append(
            f"{workload} failed_ratio parent {old_ratio:.6g} change "
            f"{new_ratio:.6g}: {'worse' if worse else 'no increase'}"
        )
        if (old["seed"], old["scale"]) != (new["seed"], new["scale"]):
            rows.append(f"{workload} counters: different seed or scale, not compared")
            continue
        counts = [(key, before["counters"].get(key), after["counters"].get(key))
                  for key in COUNT_KEYS]
        if "layers" in before and "layers" in after:  # both runs traced
            counts.append(
                ("core.ticks", before["layers"]["core.ticks"], after["layers"]["core.ticks"])
            )
        for key, a, b in counts:
            if a != b:
                flagged = True
                rows.append(f"{workload} {key} parent {a} change {b}: COUNT MISMATCH")
    return rows, flagged
