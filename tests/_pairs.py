"""Policies over one analytical foreground/background pair."""

from repro.backend import AnalyticalBackend
from repro.core.policies import run_policy


def pair_policy(machine, fg, bg, policy, **options):
    """``run_policy`` over the 2-tenant set ``[fg, bg]`` on ``machine``."""
    pair = AnalyticalBackend.group_spec([fg, bg], **options)
    return run_policy(AnalyticalBackend(machine), pair, policy)
