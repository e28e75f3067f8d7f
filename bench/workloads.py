"""The benchmark's five workloads, as seeded campaign manifests.

Every workload is a plain campaign manifest built from ``--seed``; the
program receives only the manifest. Sizes are full-scale values, tuned
so one timed repetition takes about a second on a 2-core x86 host and a
``--seconds`` run fits a dozen of them. ``scale`` shrinks each workload
along its cell-count axis (the test suite runs at about 1/50) while
keeping every code path the full-scale workload exercises.
"""

import random

WORKLOADS = (
    "trace-fixed-small",
    "trace-fixed-long",
    "trace-adaptive",
    "analytical-paper",
    "store-readback",
)
# Workloads whose samples replay traces (sim_accesses_per_s applies).
TRACE_WORKLOADS = ("trace-fixed-small", "trace-fixed-long", "trace-adaptive")

KINDS = ("zipf", "stream", "stride", "chase")
PAIRS = tuple((fg, bg) for fg in KINDS for bg in KINDS if fg != bg)

SMALL_GEOMETRIES = 12
SMALL_ACCESSES = 2_000
LONG_ACCESSES = 150_000
ADAPTIVE_GEOMETRIES = 2
ADAPTIVE_ACCESSES = 12_000
ADAPTIVE_EPOCH = 1_000
ADAPTIVE_ROSTERS = (("zipf", "stream", "chase"), ("zipf", "stream", "chase", "stride"))
ADAPTIVE_CHURN = (
    {"tenant": "chase", "epoch": 1, "action": "join"},
    {"tenant": "stream", "epoch": 3, "action": "leave"},
)
READBACK_ROUNDS = 15


def _scaled(count, scale, floor):
    return max(floor, round(count * scale))


def _geometries(rng, count, accesses):
    return [
        {
            "accesses": accesses,
            "footprint_mb": 2.0,
            "bg_footprint_mb": 4.0,
            "alpha": 0.9,
            "seed": rng.randrange(1, 2**31),
        }
        for _ in range(count)
    ]


def manifest(workload, seed, scale=1.0):
    """The JSON campaign manifest one workload runs for ``seed``."""
    if workload == "store-readback":
        # Reads back complete stores of the small fixed-mask campaign.
        return manifest("trace-fixed-small", seed, scale)
    rng = random.Random(f"{workload}/{seed}")
    pairs = [list(pair) for pair in PAIRS]
    if workload == "trace-fixed-small":
        return {
            "name": workload,
            "backends": ["trace"],
            "policies": ["shared", "fair", "static-3", "static-6", "static-9"],
            "pairs": pairs,
            "geometries": _geometries(
                rng, _scaled(SMALL_GEOMETRIES, scale, 2), SMALL_ACCESSES
            ),
        }
    if workload == "trace-fixed-long":
        return {
            "name": workload,
            "backends": ["trace"],
            "policies": ["shared", "fair"]
            + [f"static-{ways}" for ways in range(1, 12)],
            "pairs": pairs,
            "geometries": _geometries(
                rng, 1, _scaled(LONG_ACCESSES, scale, 4 * SMALL_ACCESSES)
            ),
        }
    if workload == "trace-adaptive":
        accesses = _scaled(ADAPTIVE_ACCESSES, scale, 4 * ADAPTIVE_EPOCH)
        return {
            "name": workload,
            "backends": ["trace"],
            "policies": ["biased", "dynamic", "cluster"],
            "pairs": pairs,
            "tenants": [list(roster) for roster in ADAPTIVE_ROSTERS],
            "geometries": _geometries(
                rng, _scaled(ADAPTIVE_GEOMETRIES, scale, 1), accesses
            ),
            "controllers": [
                {"epoch_accesses": ADAPTIVE_EPOCH, "total_accesses": accesses}
            ],
            "churn": [list(ADAPTIVE_CHURN)],
        }
    if workload == "analytical-paper":
        from repro.workloads.registry import (
            REPRESENTATIVES,
            all_application_names,
        )

        # All ordered pairs of the paper's six cluster representatives,
        # plus every other registry app once as foreground and once as
        # background against partners the seed draws. Per-app cost
        # varies several-fold, so all-pairs over a seeded subset would
        # make the work of a sample depend on the seed; this design
        # keeps it nearly constant.
        reps = list(REPRESENTATIVES.values())
        others = sorted(set(all_application_names()) - set(reps))
        reps = reps[:_scaled(len(reps), scale ** 0.5, 2)]
        pool = rng.sample(others, _scaled(len(others), scale, 2))
        partners = list(pool)
        while any(fg == bg for fg, bg in zip(pool, partners)):
            rng.shuffle(partners)
        return {
            "name": workload,
            "backends": ["analytical"],
            "policies": ["shared", "fair", "biased", "dynamic"],
            "pairs": [[fg, bg] for fg in reps for bg in reps if fg != bg]
            + [[fg, bg] for fg, bg in zip(pool, partners)],
        }
    raise ValueError(
        f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}"
    )


def readback_rounds(scale=1.0):
    """Rounds in one store-readback repetition."""
    return _scaled(READBACK_ROUNDS, scale, 2)
