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
off?" without strace archaeology. The same policy covers threading:
the kernels are built with ``-fopenmp`` only after a tiny ``#pragma
omp`` translation unit compiles and links, falling back to a pthread
worker loop and finally to the serial batched loop, and
:func:`threading_status` records which mode won and why the stronger
ones lost.
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

# kernel name -> (C source next to this module, exported symbols)
_KERNELS = {
    "batchwalk": (
        "batchwalk.c",
        ("repro_batch_walk", "repro_batch_profile", "repro_batch_threading"),
    ),
    "epochbatch": (
        "epochbatch.c",
        ("repro_epoch_batch", "repro_batch_threading"),
    ),
}

# kernel name -> sources it textually #includes: folded into the cache
# digest so an edit to an included file rebuilds the including object.
_INCLUDED = {
    "batchwalk": ("multiwalk.c",),
    "epochbatch": ("batchwalk.c", "multiwalk.c"),
}

# Tri-state memo per kernel: absent -> not tried, None -> unavailable,
# else {symbol: ctypes function}. Per-process, like the kernel's table
# memos.
_LOADED = {}
# kernel name -> human-readable reason it is unavailable (recorded once,
# on the first failed load attempt).
_REASONS = {}
# Memoized threading probe result, or None when not yet probed.
_THREADING = None

_NO_COMPILER = "no C compiler found ($CC, cc, gcc, clang)"

_OMP_PROBE_TU = """\
#include <omp.h>
int repro_omp_probe(void) {
    int n = 0;
#pragma omp parallel for
    for (int i = 0; i < 4; i++)
        n += omp_get_thread_num();
    return n;
}
"""

_PTHREAD_PROBE_TU = """\
#include <pthread.h>
static void *repro_noop(void *arg) { return arg; }
int repro_pthread_probe(void) {
    pthread_t t;
    if (pthread_create(&t, 0, repro_noop, 0) != 0)
        return 1;
    pthread_join(t, 0);
    return 0;
}
"""


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


def _probe_compile(cc, flags, source):
    """Compile a throwaway TU with ``flags``; ``None`` on success, else
    the first diagnostic line."""
    tmpdir = tempfile.mkdtemp(prefix="repro-probe-")
    try:
        tu = os.path.join(tmpdir, "probe.c")
        out = os.path.join(tmpdir, "probe.so")
        with open(tu, "w", encoding="utf-8") as fh:
            fh.write(source)
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", *flags, "-o", out, tu],
            capture_output=True,
            timeout=60,
        )
        if proc.returncode == 0:
            return None
        stderr = proc.stderr.decode("utf-8", "replace").strip()
        return stderr.splitlines()[0] if stderr else "no diagnostics"
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _threading_probe():
    """Pick batchwalk's threading flags: ``{"flags", "mode", "reason"}``.

    ``mode`` is ``"openmp"`` / ``"pthreads"`` / ``"serial"``; ``reason``
    says why a stronger mode lost (``None`` when OpenMP won). Memoized:
    the probe compiles up to two throwaway TUs, once per process.
    """
    global _THREADING
    if _THREADING is not None:
        return _THREADING
    cc = _compiler()
    if cc is None:
        _THREADING = {"flags": (), "mode": "serial", "reason": _NO_COMPILER}
        return _THREADING
    omp_fail = _probe_compile(cc, ("-fopenmp",), _OMP_PROBE_TU)
    if omp_fail is None:
        _THREADING = {"flags": ("-fopenmp",), "mode": "openmp",
                      "reason": None}
        return _THREADING
    pthread_fail = _probe_compile(cc, ("-pthread",), _PTHREAD_PROBE_TU)
    if pthread_fail is None:
        _THREADING = {
            "flags": ("-pthread", "-DREPRO_BATCH_PTHREADS"),
            "mode": "pthreads",
            "reason": f"openmp probe failed: {omp_fail}",
        }
        return _THREADING
    _THREADING = {
        "flags": (),
        "mode": "serial",
        "reason": (
            f"openmp probe failed: {omp_fail}; "
            f"pthread probe failed: {pthread_fail}"
        ),
    }
    return _THREADING


def _kernel_flags(name):
    """Extra compile flags for one kernel: every kernel is built on
    batchwalk.c's run_items worker pool, so all take the probed
    threading flags. ``REPRO_NATIVE_SANITIZE=1`` adds AddressSanitizer
    and UBSan; such a build loads only with libasan preloaded
    (``LD_PRELOAD=$(gcc -print-file-name=libasan.so)``)."""
    flags = tuple(_threading_probe()["flags"])
    if os.environ.get(_ENV_SANITIZE, "0").strip() == "1":
        flags += _SANITIZE_FLAGS
    return flags


def _build_library(name):
    """Compile ``<name>.c`` -> cached .so; returns ``(path, reason)``.

    Exactly one of the pair is ``None``: a path on success, else the
    human-readable reason the kernel is unavailable. The cache digest
    covers both the source bytes and the chosen flags, so an OpenMP
    build and a serial fallback build never collide.
    """
    filename, _ = _KERNELS[name]
    flags = _kernel_flags(name)
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
    """Tri-state load of one kernel; records the failure reason once."""
    if name in _LOADED:
        return _LOADED[name]
    fns = None
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
                lib = ctypes.CDLL(path)
                fns = {}
                for symbol in _KERNELS[name][1]:
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int64
                    fns[symbol] = fn
            except (OSError, AttributeError) as exc:
                fns = None
                _REASONS[name] = f"load failed: {exc}"
    _LOADED[name] = fns
    return fns


def _symbol(name, symbol):
    fns = _load(name)
    return None if fns is None else fns.get(symbol)


def batch_walk_fn():
    """The compiled ``repro_batch_walk`` entry point, or ``None``.

    One call replays every cell of a roster / way sweep, each from a
    copy of one template bank in its worker thread's own bank; see
    batchwalk.c for the ``bcfg`` and bank layouts and
    :func:`repro.cache.kernel.build_native_batch_replay` for the Python
    owner of the banks.
    """
    return _symbol("batchwalk", "repro_batch_walk")


def batch_profile_fn():
    """The compiled ``repro_batch_profile`` entry point, or ``None``.

    Set-sharded UMON stack-distance profiling over pack columns; the
    Python caller is :func:`repro.cache.profile_np.profile_pack`.
    """
    return _symbol("batchwalk", "repro_batch_profile")


def epoch_batch_fn():
    """The compiled ``repro_epoch_batch`` entry point, or ``None``.

    Advances only the cells named by the ``active`` index list, each to
    its own per-cell ``cfg[CFG_STOP]`` target, leaving all resumable
    walk state in the caller-owned banks between calls; see
    epochbatch.c for the argument list and
    :func:`repro.cache.kernel.build_native_epoch_batch_replay` for the
    Python owner of the banks.
    """
    return _symbol("epochbatch", "repro_epoch_batch")


def threading_status(kernel="batchwalk"):
    """``{"mode": ..., "reason": ...}`` for a batched kernel's threading.

    ``mode`` is ``"openmp"``, ``"pthreads"`` or ``"serial"``; ``reason``
    explains any fallback (``None`` when OpenMP won cleanly). When the
    named kernel actually loaded, the compiled object's own
    ``repro_batch_threading()`` report wins over the probe's prediction,
    so the answer describes the code that will run, not the flags that
    were requested. ``kernel`` may be any of the run_items-pool kernels
    (``batchwalk``, ``epochbatch``).
    """
    if not enabled():
        return {
            "mode": "serial",
            "reason": (
                f"disabled ({_ENV_GATE}={os.environ.get(_ENV_GATE)!r})"
            ),
        }
    probe = _threading_probe()
    mode, reason = probe["mode"], probe["reason"]
    fn = _symbol(kernel, "repro_batch_threading")
    if fn is not None:
        compiled = {2: "openmp", 1: "pthreads", 0: "serial"}.get(
            int(fn()), "unknown"
        )
        if compiled != mode:
            reason = (
                f"probe chose {mode} but the compiled object reports "
                f"{compiled}"
            )
            mode = compiled
    return {"mode": mode, "reason": reason}


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
    """``{kernel: "ok [mode]" | reason}`` for every native kernel.

    Forces a load attempt for kernels not yet tried, so the answer is
    definitive — this backs the ``native-kernel`` lines in
    ``format_engine_stat`` / ``repro trace-sweep --engine-stat``. A
    kernel's "ok" carries its threading mode (and the probe
    failure that forced a fallback), e.g. ``ok [openmp]`` or
    ``ok [serial; openmp probe failed: ...]``.
    """
    status = {}
    for name in _KERNELS:
        if _load(name) is not None:
            threading = threading_status(name)
            if threading["reason"]:
                status[name] = (
                    f"ok [{threading['mode']}; {threading['reason']}]"
                )
            else:
                status[name] = f"ok [{threading['mode']}]"
        else:
            status[name] = _REASONS.get(name, "unavailable")
    return status


def reset():
    """Forget the memoized libraries (tests toggle REPRO_NATIVE)."""
    global _THREADING
    _LOADED.clear()
    _REASONS.clear()
    _THREADING = None
