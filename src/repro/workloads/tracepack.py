"""Compiled trace packs: columnar NumPy traces with an on-disk cache.

Every synthetic trace in :mod:`repro.workloads.trace` is a Python
generator that allocates one :class:`~repro.cache.block.MemoryAccess`
per access — fine for correctness, but the dominant cost of the
address-level engine once the cache model itself is fast.  A
:class:`TracePack` is the same stream *compiled once* into packed
columns (``address``, ``pc``, ``tid``, ``rw``) plus derived per-geometry
columns (line number, LLC set index under modulo or hashed indexing)
computed with vectorized NumPy ops.

Packs are content-addressed: the cache key hashes the generator's class,
every constructor parameter (including the seed), and the pack format
version, so a stale file can never be mistaken for a different trace.
Compiled packs land in an on-disk cache directory (``REPRO_TRACE_CACHE``,
default ``~/.cache/repro/traces``) as raw ``.npy`` files and are opened
with ``mmap_mode="r"`` — repeat runs, way sweeps, and every process-pool
worker share the same physical pages zero-copy instead of re-generating
(fork workers inherit the parent's registry of open packs; no arrays or
paths are shipped).

The compiled stream is bit-identical to the generator by construction
for the registered vectorized compilers and by definition for the
generic fallback (which replays the generator once); :func:`verify_pack`
cross-checks a pack against its generator element for element.
"""

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from repro.cache.block import LINE_SHIFT, LINE_SIZE, MemoryAccess
from repro.perf import engine_counters as ec
from repro.util.errors import ValidationError
from repro.workloads.trace import (
    PointerChaseTrace,
    StencilTrace,
    StreamingTrace,
    StridedTrace,
    ZipfTrace,
)

PACK_VERSION = 1

_ENV_CACHE = "REPRO_TRACE_CACHE"

_BASE_COLUMNS = ("address", "pc", "tid", "rw")


def default_cache_dir():
    """The pack cache directory: ``$REPRO_TRACE_CACHE`` or ``~/.cache``."""
    env = os.environ.get(_ENV_CACHE, "").strip()
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "traces")


def trace_spec(trace):
    """The content-defining description of a trace generator instance.

    Every public generator keeps its full parameterization in instance
    attributes, so ``vars()`` captures class + params + seed exactly.
    """
    return {
        "generator": f"{type(trace).__module__}.{type(trace).__qualname__}",
        "params": {k: v for k, v in sorted(vars(trace).items())},
        "version": PACK_VERSION,
    }


def pack_key(trace, geometry=None):
    """Content address of a trace (optionally bound to an LLC geometry).

    Any change to the generator class, a parameter, the seed, the pack
    format version, or — when given — the geometry tuple produces a
    different key, which is what makes stale-file reuse impossible.
    """
    spec = trace_spec(trace)
    if geometry is not None:
        spec["geometry"] = list(geometry)
    blob = json.dumps(spec, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


# -- vectorized compilers ------------------------------------------------------

_COMPILERS = {}


def register_compiler(trace_cls):
    """Register a vectorized column compiler for a generator class.

    The compiler must return ``(address, pc, rw)`` arrays reproducing the
    generator's ``__iter__`` element for element (``tid`` is taken from
    the instance). Exact-type match only: a subclass with an overridden
    ``__iter__`` falls back to the generic replay compiler.
    """

    def decorate(fn):
        _COMPILERS[trace_cls] = fn
        return fn

    return decorate


@register_compiler(StreamingTrace)
def _compile_streaming(trace):
    period = -(-trace.buffer_bytes // trace.stride)  # ceil division
    steps = np.arange(trace.length, dtype=np.int64)
    address = trace.start + (steps % period) * trace.stride
    return address, np.full(trace.length, 0x400, dtype=np.int64), None


@register_compiler(StridedTrace)
def _compile_strided(trace):
    steps = np.arange(trace.length, dtype=np.int64)
    stream = steps % trace.num_streams
    address = (
        trace.start
        + stream * 0x100_0000
        + (steps // trace.num_streams) * trace.stride
    )
    return address, 0x400 + stream * 8, None


@register_compiler(PointerChaseTrace)
def _compile_chase(trace):
    # The xorshift64 chase is a dependent chain; the state walk stays a
    # scalar loop (integer ops only), the address math is vectorized.
    lines = max(1, trace.working_set_bytes // LINE_SIZE)
    state = trace.seed or 1
    states = np.empty(trace.length, dtype=np.uint64)
    for i in range(trace.length):
        state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 7
        state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
        states[i] = state
    address = trace.start + (states % np.uint64(lines)).astype(np.int64) * LINE_SIZE
    return address, np.full(trace.length, 0x500, dtype=np.int64), None


@register_compiler(ZipfTrace)
def _compile_zipf(trace):
    from repro.util.rng import DeterministicRng

    rng = DeterministicRng(trace.seed, "zipf")
    lines = max(1, trace.working_set_bytes // LINE_SIZE)
    perm_rng = np.random.default_rng(rng.seed)
    perm = perm_rng.permutation(lines)
    ranks = np.arange(1, lines + 1, dtype=np.float64) ** (-trace.alpha)
    ranks /= ranks.sum()
    draws = perm_rng.choice(lines, size=trace.length, p=ranks)
    address = trace.start + perm[draws].astype(np.int64) * LINE_SIZE
    return address, np.full(trace.length, 0x600, dtype=np.int64), None


@register_compiler(StencilTrace)
def _compile_stencil(trace):
    rows, cols = trace.rows, trace.cols
    r = np.repeat(np.arange(1, rows - 1, dtype=np.int64), cols - 2)
    c = np.tile(np.arange(1, cols - 1, dtype=np.int64), rows - 2)
    # The five probe points per (r, c), interleaved in generator order.
    rr = np.stack([r, r - 1, r + 1, r, r], axis=1).ravel()
    cc = np.stack([c, c, c, c - 1, c + 1], axis=1).ravel()
    sweep = trace.start + (rr * cols + cc) * trace.elem_bytes
    address = np.resize(sweep, trace.length)  # cyclic repeat, truncated
    return address, np.full(trace.length, 0x700, dtype=np.int64), None


def _compile_generic(trace):
    """Fallback: replay the generator once and pack what it yields."""
    address, pc, tid, rw = [], [], [], []
    for acc in trace:
        address.append(acc.address)
        pc.append(acc.pc)
        tid.append(acc.tid)
        rw.append(acc.is_write)
    return {
        "address": np.asarray(address, dtype=np.int64),
        "pc": np.asarray(pc, dtype=np.int64),
        "tid": np.asarray(tid, dtype=np.int64),
        "rw": np.asarray(rw, dtype=np.uint8),
    }


def compile_columns(trace):
    """Compile a trace generator instance into its base columns."""
    fn = _COMPILERS.get(type(trace))
    if fn is None:
        return _compile_generic(trace)
    address, pc, rw = fn(trace)
    length = len(address)
    if np.isscalar(pc) or getattr(pc, "shape", None) == ():
        pc = np.full(length, pc, dtype=np.int64)
    return {
        "address": np.ascontiguousarray(address, dtype=np.int64),
        "pc": np.ascontiguousarray(pc, dtype=np.int64),
        "tid": np.full(length, trace.tid, dtype=np.int64),
        "rw": (
            np.zeros(length, dtype=np.uint8)
            if rw is None
            else np.ascontiguousarray(rw, dtype=np.uint8)
        ),
    }


# -- the pack ------------------------------------------------------------------


def _valid_set_column(column, length, num_sets):
    """Whether a stored set column holds ``length`` integer set indices,
    each in ``[0, num_sets)``."""
    if column.shape != (length,) or column.dtype.kind not in "iu":
        return False
    return not length or (
        int(column.min()) >= 0 and int(column.max()) < num_sets
    )


class TracePack:
    """One compiled trace: columnar arrays plus derived geometry columns."""

    def __init__(self, columns, key, path=None, meta=None):
        self.address = columns["address"]
        self.pc = columns["pc"]
        self.tid = columns["tid"]
        self.rw = columns["rw"]
        self.key = key
        self.path = path
        self.meta = meta or {}
        self._line = columns.get("line")
        self._sets = {}
        self._lines_list = None
        self._writes_list = None

    def __len__(self):
        return len(self.address)

    @property
    def line(self):
        """Line-number column (``address >> LINE_SHIFT``), computed once."""
        if self._line is None:
            self._line = self.address >> np.int64(LINE_SHIFT)
        return self._line

    def set_column(self, num_sets, indexing="hash"):
        """LLC set index of every access under the given geometry.

        Computed vectorized on first request per geometry; disk-backed
        packs persist the derived column next to the base columns so the
        fold is paid once per (pack, geometry), ever. A stored column of
        the wrong length or with an index outside ``[0, num_sets)`` —
        which the native kernels would use as an LLC set index — is
        recomputed and overwritten.
        """
        from repro.cache.indexing import _INDEXING

        if indexing not in _INDEXING:
            raise ValidationError(f"unknown indexing scheme {indexing!r}")
        cache_key = (int(num_sets), indexing)
        column = self._sets.get(cache_key)
        if column is not None:
            return column
        filename = f"set_{indexing}{num_sets}.npy"
        if self.path is not None:
            stored = os.path.join(self.path, filename)
            if os.path.exists(stored):
                try:
                    column = np.load(stored, mmap_mode="r")
                except (OSError, ValueError):
                    column = None
                if column is not None and _valid_set_column(
                    column, len(self), num_sets
                ):
                    self._sets[cache_key] = column
                    return column
        column = _INDEXING[indexing](num_sets).index_array(self.line)
        if self.path is not None:
            try:
                _atomic_save(os.path.join(self.path, filename), column)
            except OSError:
                pass  # read-only cache: keep the in-memory column
        self._sets[cache_key] = column
        return column

    def lines_list(self):
        """The line column as a plain Python list (engine hot-loop form)."""
        if self._lines_list is None:
            self._lines_list = self.line.tolist()
        return self._lines_list

    def writes_list(self):
        """Per-access write flags as a list, or ``None`` if all reads."""
        if self._writes_list is None:
            if self.rw.any():
                self._writes_list = (self.rw != 0).tolist()
            else:
                self._writes_list = False
        return self._writes_list or None

    def accesses(self):
        """Iterate the pack as MemoryAccess objects (compatibility path)."""
        address = self.address.tolist()
        pc = self.pc.tolist()
        tid = self.tid.tolist()
        rw = self.rw.tolist()
        for i in range(len(address)):
            yield MemoryAccess(
                address=address[i], is_write=bool(rw[i]), pc=pc[i], tid=tid[i]
            )


def verify_pack(pack, trace):
    """Cross-check a compiled pack against its generator, element for
    element; raises :class:`ValidationError` on the first divergence."""
    address = pack.address.tolist()
    pc = pack.pc.tolist()
    tid = pack.tid.tolist()
    rw = pack.rw.tolist()
    count = 0
    for i, acc in enumerate(trace):
        if i >= len(address):
            raise ValidationError(
                f"pack too short: generator yields more than {len(address)}"
            )
        if (
            address[i] != acc.address
            or pc[i] != acc.pc
            or tid[i] != acc.tid
            or bool(rw[i]) != acc.is_write
        ):
            raise ValidationError(
                f"pack diverges from generator at access {i}: "
                f"packed ({address[i]:#x}, {pc[i]:#x}, {tid[i]}, {bool(rw[i])}) "
                f"vs generated ({acc.address:#x}, {acc.pc:#x}, {acc.tid}, "
                f"{acc.is_write})"
            )
        count += 1
    if count != len(address):
        raise ValidationError(
            f"pack too long: generator yields {count}, pack holds {len(address)}"
        )
    return count


# -- the on-disk cache ---------------------------------------------------------


def _atomic_save(target, array):
    """Write an ``.npy`` next to the target then rename into place."""
    directory = os.path.dirname(target)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npy.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_pack_dir(base, key, columns, meta):
    """Materialize a pack directory atomically (write-temp then rename)."""
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base, prefix=f".{key}.tmp")
    target = os.path.join(base, key)
    try:
        for name in _BASE_COLUMNS:
            np.save(os.path.join(tmp, f"{name}.npy"), columns[name])
        with open(os.path.join(tmp, "meta.json"), "w") as handle:
            json.dump(meta, handle, sort_keys=True, default=repr)
            handle.write("\n")
        os.rename(tmp, target)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.isdir(target):  # lost a race or unwritable cache
            raise
    return target


def _open_pack_dir(path, expect_key=None):
    """Open a pack directory as memmapped columns; None if unusable."""
    try:
        with open(os.path.join(path, "meta.json")) as handle:
            meta = json.load(handle)
        if meta.get("pack_version") != PACK_VERSION:
            return None
        if expect_key is not None and meta.get("key") != expect_key:
            return None
        columns = {
            name: np.load(os.path.join(path, f"{name}.npy"), mmap_mode="r")
            for name in _BASE_COLUMNS
        }
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        return None
    lengths = {len(columns[name]) for name in _BASE_COLUMNS}
    if len(lengths) != 1 or meta.get("length") not in lengths:
        return None
    return TracePack(columns, meta.get("key", ""), path=path, meta=meta)


# In-process pack registry: target path -> the one TracePack for it,
# memmapped or (when the cache cannot be written) in memory. Fork pool
# workers inherit it, so a pack the parent opened is already open there
# and its memmapped pages are shared by the OS.
_OPEN_PACKS = {}


# (cache dir, generator class, exact params) -> (pack_key, target path):
# a registry hit skips the json + sha256 of pack_key. The registry above
# is still consulted on every call, so clearing it forces a re-open.
_PACK_TARGETS = {}

_EXACT_SCALARS = (str, int, bool, type(None))


def _exact_params(trace):
    """The trace's parameters as a hashable tuple that is equal only
    for parameters with equal ``pack_key`` payloads, or ``None`` for any
    other value. Each value carries its type (``1``, ``1.0`` and
    ``True`` compare equal but key differently) and a float is held by
    its ``repr`` (``-0.0 == 0.0``; ``nan != nan``)."""
    items = []
    for name, value in sorted(vars(trace).items()):
        kind = type(value)
        if kind is float:
            value = repr(value)
        elif kind not in _EXACT_SCALARS:
            return None
        items.append((name, kind, value))
    return tuple(items)


def get_pack(trace):
    """Compile (or load from the cache) the pack for a trace instance.

    The cache directory is ``REPRO_TRACE_CACHE``, else
    ``~/.cache/repro/traces``. Every call for one trace returns the same
    :class:`TracePack` object in one process: the registry keeps each
    pack under its target path, including the in-memory pack an
    unwritable cache degrades to, so a trace compiles at most once per
    process. Cache hits and misses land in the engine counters
    (``pack-hits`` / ``pack-misses``).
    """
    base = default_cache_dir()
    params = _exact_params(trace)
    memo = None if params is None else (base, type(trace), params)
    hit = _PACK_TARGETS.get(memo)
    if hit is None:
        key = pack_key(trace)
        target = os.path.join(base, key)
        if memo is not None:
            _PACK_TARGETS[memo] = key, target
    else:
        key, target = hit
    pack = _OPEN_PACKS.get(target)
    if pack is None:
        pack = _open_pack_dir(target, expect_key=key)
    if pack is not None:
        _OPEN_PACKS[target] = pack
        ec.add(ec.PACK_HITS)
        return pack
    ec.add(ec.PACK_MISSES)
    columns = compile_columns(trace)
    ec.add(ec.PACK_COMPILED_ACCESSES, len(columns["address"]))
    meta = {
        "key": key,
        "pack_version": PACK_VERSION,
        "length": int(len(columns["address"])),
        "spec": trace_spec(trace),
        "columns": list(_BASE_COLUMNS),
    }
    pack = TracePack(columns, key, path=None, meta=meta)
    try:
        _write_pack_dir(base, key, columns, meta)
    except OSError:
        pass  # unwritable cache: serve the in-memory pack
    else:
        pack = _open_pack_dir(target, expect_key=key) or pack
    _OPEN_PACKS[target] = pack
    return pack
