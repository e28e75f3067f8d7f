"""Analytical foreground/background pairs: policies and dynamic co-runs."""

import dataclasses

from repro.backend import AnalyticalBackend
from repro.core.dynamic import DynamicPartitionController
from repro.core.policies import run_policy
from repro.runtime.harness import paper_pair_allocations
from repro.workloads import get_application


def pair_policy(machine, fg, bg, policy, **options):
    """``run_policy`` over the 2-tenant set ``[fg, bg]`` on ``machine``."""
    pair = AnalyticalBackend.group_spec([fg, bg], **options)
    return run_policy(AnalyticalBackend(machine), pair, policy)


def dynamic_pair(machine, fg, bg, controller=None, **options):
    """One controlled co-run of ``fg`` over ``bg`` (models or names).

    The controller defaults to Algorithm 6.2 keyed on the engine's
    names (a self-pair's background is ``name#2``) and starts the pair on
    its masks. Returns ``(pair, controller, calls)``, where ``calls``
    counts the engine's ``on_tick`` calls.
    """
    if isinstance(fg, str):
        fg = get_application(fg)
    if isinstance(bg, str):
        bg = get_application(bg)
    bg_name = bg.name if bg.name != fg.name else f"{bg.name}#2"
    if controller is None:
        controller = DynamicPartitionController(fg.name, bg_name)
    calls = []
    on_tick = controller.on_tick

    def counted(now_s, dt_s, metrics):
        calls.append(now_s)
        return on_tick(now_s, dt_s, metrics)

    controller.on_tick = counted
    masks = controller.masks()
    fg_alloc, bg_alloc = paper_pair_allocations(fg, bg)
    pair = machine.run_pair(
        fg,
        bg,
        fg_alloc.with_mask(masks[fg.name]),
        bg_alloc.with_mask(masks[bg_name]),
        controller=controller,
        **options,
    )
    return pair, controller, len(calls)


def run_bits(pair, controller):
    """Every field of a co-run and its controller's actions, with floats
    spelled exactly (``repr`` round-trips and keeps the sign of zero)."""
    return repr((dataclasses.astuple(pair), controller.actions))
