"""Tour of the extensions beyond the paper's core evaluation.

1. UCP (Qureshi & Patt) — the related-work baseline, contrasted with
   the paper's foreground-protective biased split.
2. Memory-bandwidth QoS — the hardware the paper's Section 8 asks for.
3. Multiple background peers sharing one partition (Section 6.3).
4. Multiple latency-sensitive foregrounds with slowdown bounds (the
   future-work allocator the authors point to PACORA for).

Run:  python examples/extensions_tour.py
"""

from repro import AnalyticalBackend, Machine, get_application, run_policy
from repro.core import (
    DynamicPartitionController,
    ForegroundRequest,
    QosContract,
    SlowdownBoundAllocator,
    apply_qos,
    run_ucp,
)
from repro.sim.allocation import Allocation
from repro.util import format_table


def biased_pair(machine, fg, bg):
    """The paper's biased policy on one foreground/background pair."""
    pair = AnalyticalBackend.group_spec([fg, bg])
    return run_policy(AnalyticalBackend(machine), pair, "biased")


def ucp_vs_biased(machine):
    fg = get_application("471.omnetpp")
    bg = get_application("canneal")
    solo = machine.run_solo(fg, threads=1).runtime_s
    rows = []
    for outcome in (run_ucp(machine, fg, bg), biased_pair(machine, fg, bg)):
        rows.append(
            (
                outcome.policy,
                f"{outcome.fg_ways}/{outcome.bg_ways}",
                f"{outcome.fg_runtime_s / solo:.3f}",
                f"{outcome.bg_rate_ips / 1e9:.2f}",
            )
        )
    print(
        format_table(
            ["policy", "fg/bg ways", "fg slowdown", "bg Ginstr/s"],
            rows,
            title="1. UCP minimizes misses; biased protects responsiveness",
        )
    )


def bandwidth_qos(machine):
    victim = get_application("462.libquantum")
    hog = get_application("stream_uncached")
    solo = machine.run_solo(victim, threads=1).runtime_s
    before = biased_pair(machine, victim, hog).fg_runtime_s / solo
    restore = apply_qos(
        machine, [QosContract(victim.name, reserved_fraction=0.35, latency_priority=True)]
    )
    try:
        after = biased_pair(machine, victim, hog).fg_runtime_s / solo
    finally:
        restore()
    print(
        format_table(
            ["configuration", "fg slowdown vs the hog"],
            [
                ("best LLC partition only", f"{before:.3f}"),
                ("+ bandwidth reservation & priority", f"{after:.3f}"),
            ],
            title="2. The Section 8 proposal: bandwidth QoS fixes what "
            "cache partitioning cannot",
        )
    )


def background_peers(machine):
    fg = get_application("429.mcf")
    peers = [get_application("batik"), get_application("dedup")]
    controller = DynamicPartitionController(fg.name, [p.name for p in peers])
    masks = controller.masks()
    fg_alloc = Allocation(threads=1, cores=(0, 1), mask=masks[fg.name])
    bg_allocs = [
        Allocation(threads=2, cores=(2 + i,), mask=masks[p.name])
        for i, p in enumerate(peers)
    ]
    group = machine.run_group(fg, peers, fg_alloc, bg_allocs, controller=controller)
    solo = machine.run_solo(fg, threads=1).runtime_s
    print(
        format_table(
            ["metric", "value"],
            [
                ("fg slowdown", f"{group.fg.runtime_s / solo:.3f}"),
                ("aggregate bg throughput", f"{group.bg_rate_ips / 1e9:.2f} Ginstr/s"),
                ("controller reallocations", len(controller.actions)),
            ],
            title="3. Two background peers share the complement partition",
        )
    )


def multiple_foregrounds(machine):
    allocator = SlowdownBoundAllocator(machine.config)
    plan = allocator.plan(
        [
            ForegroundRequest(get_application("batik"), 1.05, threads=4),
            ForegroundRequest(get_application("tomcat"), 1.05, threads=4),
        ]
    )
    rows = [
        (name, ways, f"{plan.projected_slowdowns[name]:.3f}")
        for name, ways in plan.ways_by_app.items()
    ]
    rows.append(("(background pool)", plan.bg_mask.count, "-"))
    print(
        format_table(
            ["application", "ways", "projected slowdown"],
            rows,
            title="4. Two latency-sensitive apps with 5% slowdown bounds",
        )
    )


def main():
    machine = Machine()
    ucp_vs_biased(machine)
    print()
    bandwidth_qos(machine)
    print()
    background_peers(machine)
    print()
    multiple_foregrounds(machine)


if __name__ == "__main__":
    main()
