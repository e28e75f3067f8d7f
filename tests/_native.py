"""Native-kernel toggles shared by the lockstep tests.

The native side of a lockstep pair is the two C kernels (batchwalk,
epochbatch), both built on one pthread worker pool; the other side is
the pure-Python reference the loader falls back to.

A plain module rather than fixtures: hypothesis ``@given`` bodies call
these helpers once per example, and function-scoped fixtures do not
reset between examples.
"""

import os

from repro.cache import native


def native_available():
    """Whether both native kernels (batchwalk, epochbatch) load here —
    false without a C compiler and under ``REPRO_NATIVE=0``."""
    return (
        native.batch_walk_fn() is not None
        and native.epoch_batch_fn() is not None
    )


def without_native(fn):
    """Run ``fn`` with the native kernels disabled (pure-Python paths)."""
    previous = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    native.reset()
    try:
        return fn()
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = previous
        native.reset()
