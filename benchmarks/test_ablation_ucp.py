"""Ablation: the related-work baselines — UCP (miss-minimizing, [29])
and thrash containment (Xie & Loh, [38]) — versus the paper's QoS-aware
biased partitioning."""

from conftest import run_once

from repro.backend import AnalyticalBackend
from repro.core import run_policy, run_ucp
from repro.core.thrash import run_thrash_containment
from repro.util.tables import format_table
from repro.workloads import get_application

PAIRS = [
    ("471.omnetpp", "canneal"),
    ("429.mcf", "459.GemsFDTD"),
    ("fop", "471.omnetpp"),
    ("471.omnetpp", "462.libquantum"),
]


def test_ablation_ucp_vs_biased(benchmark, machine):
    def run():
        rows = []
        for fg_name, bg_name in PAIRS:
            fg = get_application(fg_name)
            bg = get_application(bg_name)
            threads = 1 if fg.scalability.single_threaded else 4
            solo = machine.run_solo(fg, threads=threads).runtime_s
            backend = AnalyticalBackend(machine)
            pair = AnalyticalBackend.group_spec([fg, bg])
            for outcome in (
                run_policy(backend, pair, "shared"),
                run_ucp(machine, fg, bg),
                run_thrash_containment(machine, fg, bg),
                run_policy(backend, pair, "biased"),
            ):
                rows.append(
                    (
                        f"{fg_name}+{bg_name}",
                        outcome.policy,
                        f"{outcome.fg_ways}/{outcome.bg_ways}",
                        outcome.fg_runtime_s / solo,
                        outcome.bg_rate_ips,
                    )
                )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["pair", "policy", "fg/bg ways", "fg slowdown", "bg instr/s"],
            [
                (p, pol, w, f"{s:.3f}", f"{r / 1e9:.2f}G")
                for p, pol, w, s, r in rows
            ],
            title="Ablation — baselines: UCP minimizes total misses, thrash "
            "containment confines streamers, biased protects the fg",
        )
    )
    by_pair = {}
    for pair, policy, _, slowdown, bg_rate in rows:
        by_pair.setdefault(pair, {})[policy] = (slowdown, bg_rate)
    for pair, policies in by_pair.items():
        # Biased must protect the foreground at least as well as UCP...
        assert policies["biased"][0] <= policies["ucp"][0] + 1e-9, pair
        # ...and UCP should meaningfully beat naive sharing for someone.
    assert any(
        p["ucp"][0] < p["shared"][0] - 0.01 for p in by_pair.values()
    ), "UCP never helped anywhere"
