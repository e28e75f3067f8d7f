"""On-demand compilation of the native pack-replay kernels.

``batchwalk.c`` (the batched, multi-threaded driver that replays a whole
roster of independent cells in one call) and ``epochbatch.c`` (the
batched driver made epoch-resumable: one threaded call advances every
*active* cell by one epoch, host-side controller logic in between) live
next to this module. Both ``#include`` ``multiwalk.c``, the fused
N-domain walk and scheduler that replays one cell; a single co-run is a
one-cell ``batchwalk`` roster. Each kernel is
compiled once per (source revision, flag set) with whatever
``cc``/``gcc`` the host offers, cached as a shared object under the
trace-pack cache directory, and loaded with :mod:`ctypes`. Everything is
best-effort: no compiler, a failed compile, or ``REPRO_NATIVE=0`` simply
means the ``*_fn`` accessors return ``None`` and callers fall back to
their pure-Python references — results are bit-identical either way, the
native kernels are only faster.

``REPRO_NATIVE_SANITIZE=1`` builds the kernels with AddressSanitizer
and UBSan instead (a separate cached object: the flags are part of the
cache digest), for memory-safety test runs.

"Best-effort" no longer means "silent": the first failure per kernel is
recorded and :func:`kernel_status` reports it, so ``repro trace-sweep
--engine-stat`` (via ``format_engine_stat``) can answer "why is native
off?" without strace archaeology. Every kernel is built with
``-pthread`` on batchwalk.c's ``run_items`` worker pool, the one
threading implementation; a compiler that cannot build with it leaves
the kernels unavailable like any other failed compile.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

_ENV_GATE = "REPRO_NATIVE"
_ENV_THREADS = "REPRO_NATIVE_THREADS"
_ENV_SANITIZE = "REPRO_NATIVE_SANITIZE"
_SANITIZE_FLAGS = (
    "-fsanitize=address,undefined", "-fno-omit-frame-pointer",
)
_HERE = os.path.dirname(os.path.abspath(__file__))

# kernel name -> (C source next to this module, exported entry point)
_KERNELS = {
    "batchwalk": ("batchwalk.c", "repro_batch_walk"),
    "epochbatch": ("epochbatch.c", "repro_epoch_batch"),
}

# kernel name -> sources it textually #includes: folded into the cache
# digest so an edit to an included file rebuilds the including object.
_INCLUDED = {
    "batchwalk": ("multiwalk.c",),
    "epochbatch": ("batchwalk.c", "multiwalk.c"),
}

# Tri-state memo per kernel: absent -> not tried, None -> unavailable,
# else its entry point as a ctypes function. Per-process, like the
# kernel's table memos.
_LOADED = {}
# kernel name -> human-readable reason it is unavailable (recorded once,
# on the first failed load attempt).
_REASONS = {}

_NO_COMPILER = "no C compiler found ($CC, cc, gcc, clang)"


def enabled():
    """Native kernels are opt-out: ``REPRO_NATIVE=0`` disables them."""
    return os.environ.get(_ENV_GATE, "1").lower() not in ("0", "false", "off")


def _cache_dir():
    root = os.environ.get("REPRO_TRACE_CACHE")
    if not root:
        root = os.path.join(
            os.path.expanduser(os.environ.get("XDG_CACHE_HOME", "~/.cache")),
            "repro",
            "traces",
        )
    return os.path.join(os.path.expanduser(root), "native")


def _compiler():
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _kernel_flags():
    """Extra compile flags for every kernel: all are built on
    batchwalk.c's run_items pthread pool, so all take ``-pthread``.
    ``REPRO_NATIVE_SANITIZE=1`` adds AddressSanitizer and UBSan; such a
    build loads only with libasan preloaded
    (``LD_PRELOAD=$(gcc -print-file-name=libasan.so)``)."""
    flags = ("-pthread",)
    if os.environ.get(_ENV_SANITIZE, "0").strip() == "1":
        flags += _SANITIZE_FLAGS
    return flags


def _build_library(name):
    """Compile ``<name>.c`` -> cached .so; returns ``(path, reason)``.

    Exactly one of the pair is ``None``: a path on success, else the
    human-readable reason the kernel is unavailable. The cache digest
    covers both the source bytes and the flags, so a sanitizer build
    and a plain build never collide.
    """
    filename, _ = _KERNELS[name]
    flags = _kernel_flags()
    source_path = os.path.join(_HERE, filename)
    try:
        with open(source_path, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        return None, f"source unreadable: {exc}"
    hasher = hashlib.sha256(source)
    for flag in flags:
        hasher.update(flag.encode("utf-8"))
    for included in _INCLUDED.get(name, ()):
        try:
            with open(os.path.join(_HERE, included), "rb") as fh:
                hasher.update(fh.read())
        except OSError as exc:
            return None, f"source unreadable: {exc}"
    digest = hasher.hexdigest()[:16]
    cache = _cache_dir()
    target = os.path.join(cache, f"{name}-{digest}.so")
    if os.path.exists(target):
        return target, None
    cc = _compiler()
    if cc is None:
        return None, _NO_COMPILER
    tmp = None
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", *flags, "-o", tmp, source_path],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            first = stderr.splitlines()[0] if stderr else "no diagnostics"
            return None, f"{cc} failed: {first}"
        os.replace(tmp, target)  # atomic: concurrent builders converge
        tmp = None
        return target, None
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"compile error: {exc}"
    finally:
        if tmp is not None:  # no failure leaves its partial object behind
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _load(name):
    """Tri-state load of one kernel's entry point; records the failure
    reason once."""
    if name in _LOADED:
        return _LOADED[name]
    fn = None
    if not enabled():
        _REASONS[name] = (
            f"disabled ({_ENV_GATE}={os.environ.get(_ENV_GATE)!r})"
        )
    else:
        path, reason = _build_library(name)
        if path is None:
            _REASONS[name] = reason
        else:
            try:
                fn = getattr(ctypes.CDLL(path), _KERNELS[name][1])
                fn.restype = ctypes.c_int64
            except (OSError, AttributeError) as exc:
                fn = None
                _REASONS[name] = f"load failed: {exc}"
    _LOADED[name] = fn
    return fn


def batch_walk_fn():
    """The compiled ``repro_batch_walk`` entry point, or ``None``.

    One call replays every cell of a roster / way sweep, each from a
    copy of one template bank in its worker thread's own bank; see
    batchwalk.c for the ``bcfg`` and bank layouts and
    :func:`repro.cache.kernel.build_native_batch_replay` for the Python
    owner of the banks.
    """
    return _load("batchwalk")


def epoch_batch_fn():
    """The compiled ``repro_epoch_batch`` entry point, or ``None``.

    Advances only the cells named by the ``active`` index list, each to
    its own per-cell ``cfg[CFG_STOP]`` target, leaving all resumable
    walk state in the caller-owned banks between calls; see
    epochbatch.c for the argument list and
    :func:`repro.cache.kernel.build_native_epoch_batch_replay` for the
    Python owner of the banks.
    """
    return _load("epochbatch")


def threading_status(kernel="batchwalk"):
    """``{"mode": ..., "reason": ...}`` for a batched kernel's threading.

    Loads ``kernel`` (``batchwalk`` or ``epochbatch``) if it was not
    tried yet. A loaded kernel runs on the pthread pool: ``{"mode":
    "pthreads", "reason": None}``. An unavailable one leaves the
    Python fallback to replay serially: ``mode`` is ``"serial"`` and
    ``reason`` says why the kernel is off.
    """
    if _load(kernel) is not None:
        return {"mode": "pthreads", "reason": None}
    return {"mode": "serial", "reason": _REASONS.get(kernel, "unavailable")}


def resolve_native_threads(allocations, threads=None):
    """Worker-thread count for one batched native call.

    Mirrors :func:`repro.exec.pool.resolve_workers`: an explicit
    ``threads`` argument wins, else ``REPRO_NATIVE_THREADS`` (whitespace
    counts as unset), else ``min(usable CPUs, allocations)`` — a batch
    of R cells never needs more than R threads.
    """
    from repro.exec.pool import usable_cpus
    from repro.util.errors import ValidationError

    if threads is None:
        env = os.environ.get(_ENV_THREADS, "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(
                    f"{_ENV_THREADS} must be an integer, got {env!r}"
                ) from None
        else:
            threads = min(usable_cpus(), max(1, allocations))
    if threads < 1:
        raise ValidationError("native threads must be >= 1")
    return threads


def kernel_status():
    """``{kernel: "ok [pthreads]" | reason}`` for every native kernel.

    Forces a load attempt for kernels not yet tried, so the answer is
    definitive — this backs the ``native-kernel`` lines in
    ``format_engine_stat`` / ``repro trace-sweep --engine-stat``.
    """
    status = {}
    for name in _KERNELS:
        threading = threading_status(name)
        status[name] = threading["reason"] or f"ok [{threading['mode']}]"
    return status


def reset():
    """Forget the memoized libraries (tests toggle REPRO_NATIVE)."""
    _LOADED.clear()
    _REASONS.clear()
