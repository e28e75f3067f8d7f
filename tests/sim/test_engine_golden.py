"""Golden outputs of the scalar engine, pinned bit for bit.

The memo-on/off and grid-vs-scalar equivalence tests compare two paths
that both go through ``Machine._steps``, so a change to the tick loop that
moved every path together would pass them. These cases pin the engine's
own outputs instead: every ``RunResult`` field, the pair or group totals,
the timeline, the controller's actions and the memo's hit and miss
counts, as ``float.hex`` text hashed with sha256. The readable fields
next to each digest show roughly where a drift landed.

To re-pin after an intended model change, print ``_summary(case())`` for
each case and paste it below; say in the change why the numbers moved.
"""

import hashlib
import json

import pytest

from repro.core.dynamic import DynamicPartitionController
from repro.runtime.harness import paper_pair_allocations
from repro.sim import Machine
from repro.sim.allocation import Allocation
from repro.workloads import get_application


def _canonical(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _run_fields(r):
    return [
        r.name, r.runtime_s, r.instructions, r.llc_misses, r.llc_accesses,
        r.socket_energy_j, r.wall_energy_j, r.avg_power_w, r.pp0_energy_j,
    ]


def _timeline(points):
    return [[p.time_s, p.per_app] for p in points]


def _actions(controller):
    if controller is None:
        return []
    return [[a.time_s, a.fg_ways, a.reason, a.mpki] for a in controller.actions]


def _summary(case):
    """The pinned view of one case: readable fields plus one digest."""
    machine, result, controller = case
    if hasattr(result, "backgrounds"):  # GroupResult
        runs = [result.fg] + list(result.backgrounds.values())
    elif hasattr(result, "fg"):  # PairResult
        runs = [result.fg, result.bg]
    else:  # RunResult
        runs = [result]
    body = {
        "runs": [_run_fields(r) for r in runs],
        "memo": [machine.memo.hits, machine.memo.misses],
        "actions": _actions(controller),
    }
    if hasattr(result, "makespan_s"):
        body["totals"] = [
            result.makespan_s, result.socket_energy_j, result.wall_energy_j,
            result.bg_rate_ips,
        ]
        body["timeline"] = _timeline(result.timeline)
    text = json.dumps(_canonical(body), sort_keys=True, separators=(",", ":"))
    return {
        "runtime": runs[0].runtime_s.hex(),
        "actions": len(body["actions"]),
        "memo": (machine.memo.hits, machine.memo.misses),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _dynamic_pair(machine, fg_name, bg_name, timeline=False):
    fg, bg = get_application(fg_name), get_application(bg_name)
    # Self-pairs run the background under the engine's "#2" alias.
    alias = bg.name if bg.name != fg.name else f"{bg.name}#2"
    controller = DynamicPartitionController(fg.name, alias)
    masks = controller.masks()
    fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
    result = machine.run_pair(
        fg, bg,
        fg_alloc.with_mask(masks[fg.name]),
        bg_alloc.with_mask(masks[alias]),
        controller=controller,
        timeline=timeline,
    )
    return machine, result, controller


def case_dynamic_phased_pair():
    return _dynamic_pair(Machine(), "x264", "429.mcf")


def case_dynamic_self_pair():
    return _dynamic_pair(Machine(), "471.omnetpp", "471.omnetpp")


def case_dynamic_group():
    machine = Machine()
    fg = get_application("429.mcf")
    bgs = [get_application("batik"), get_application("dedup")]
    controller = DynamicPartitionController(fg.name, [b.name for b in bgs])
    masks = controller.masks()
    fg_alloc = Allocation(threads=4, cores=(0, 1), mask=masks[fg.name])
    bg_allocs = [
        Allocation(threads=2, cores=(2,), mask=masks["batik"]),
        Allocation(threads=2, cores=(3,), mask=masks["dedup"]),
    ]
    result = machine.run_group(fg, bgs, fg_alloc, bg_allocs, controller=controller)
    return machine, result, controller


def case_noisy_dynamic_timeline():
    return _dynamic_pair(
        Machine(mpki_noise_std=0.05), "h2", "471.omnetpp", timeline=True
    )


def case_static_finite_pair():
    machine = Machine()
    fg, bg = get_application("x264"), get_application("batik")
    fg_alloc, bg_alloc = paper_pair_allocations(fg, bg, 8, 4)
    result = machine.run_pair(fg, bg, fg_alloc, bg_alloc, bg_continuous=False)
    return machine, result, None


def case_solo():
    machine = Machine()
    result = machine.run_solo(get_application("429.mcf"), threads=4, ways=6)
    return machine, result, None


PINNED = {
    "dynamic_group": {
        "runtime": "0x1.0819999999905p+8",
        "actions": 44,
        "memo": (2599, 42),
        "sha256": "56271360bc1e16ef678274450a38cf042db72a440e05cc076b8b8bded3083118",
    },
    "dynamic_phased_pair": {
        "runtime": "0x1.09999999999bdp+6",
        "actions": 8,
        "memo": (656, 8),
        "sha256": "2b5329b864f152af505daf46009df37f479c0552f43630d2891ddf66f0c121b5",
    },
    "dynamic_self_pair": {
        "runtime": "0x1.7cfffffffff1ap+7",
        "actions": 2,
        "memo": (1903, 2),
        "sha256": "00a5a5f0b497252e84553e522ae7a91b8029a6934ea03cc996f1341764938a3a",
    },
    "noisy_dynamic_timeline": {
        "runtime": "0x1.f2666666666bdp+5",
        "actions": 176,
        "memo": (613, 10),
        "sha256": "d1dfefc2005db65a57e94ce08dfac45297eafe7a3c22608c7f2518b9f0d047cb",
    },
    "solo": {
        "runtime": "0x1.08a14ca871d1bp+8",
        "actions": 0,
        "memo": (0, 6),
        "sha256": "fe2532c1e48f91383a16b02ba486d10259b5a95be83b46c28424b926e9954487",
    },
    "static_finite_pair": {
        "runtime": "0x1.0cdd827f40002p+6",
        "actions": 0,
        "memo": (0, 4),
        "sha256": "3bc330efd15496a5af9f0803b780564e13218655da52b44ff6863d7cf569ec39",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_engine_output_is_pinned(name):
    assert _summary(globals()[f"case_{name}"]()) == PINNED[name]


def test_every_case_is_pinned():
    cases = {n[len("case_"):] for n in globals() if n.startswith("case_")}
    assert cases == set(PINNED)

