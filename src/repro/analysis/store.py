"""The versioned on-disk run-record store.

:class:`RunRecord` / :class:`RunSet` hold the backend-neutral outcome
of a policy run (policy, backend, split, and the fg-cost/bg-rate
metrics with their units). ``repro consolidate --json``, the trace
commands, and ``repro compare`` all speak this schema, so a run
produced on one backend can be diffed against the other.

The store carries a schema-version field, writes atomically (temp file
+ ``os.replace``), and raises :class:`~repro.util.errors.ValidationError`
— never a bare ``KeyError``/``TypeError`` — on corrupt files.
"""

import glob
import itertools
import json
import os
from dataclasses import dataclass, field

from repro.util.errors import ValidationError

RUNSET_VERSION = 1


def _atomic_write_json(payload, path):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        # One json.dumps, not json.dump: only the one-shot dumps path
        # runs on the C encoder; dump always iterates in Python.
        handle.write(
            json.dumps(payload, separators=(",", ":"), sort_keys=True)
        )
    os.replace(tmp, path)


# -- run records: policy outcomes in a backend-neutral schema -----------------


@dataclass(frozen=True)
class RunRecord:
    """One policy outcome, reduced to plain comparable data.

    ``metrics`` holds at least ``fg_cost`` and ``bg_rate`` plus the
    chosen split (``fg_ways``/``bg_ways``); ``units`` labels the cost
    and rate axes so cross-backend diffs can refuse to compare
    incommensurable numbers. ``provenance`` carries whatever identifies
    the run (run options, sweep source, controller actions count).
    """

    policy: str
    backend: str
    fg: str
    bg: str
    fg_ways: int
    bg_ways: int
    metrics: dict
    units: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    # Resolved tenant names for N-tenant group records; empty for pair
    # records (whose on-disk shape is unchanged).
    tenants: tuple = ()

    @property
    def key(self):
        """The identity a diff matches records on.

        Pair records keep the historical ``(policy, fg, bg)`` triple;
        group records key on the full tenant tuple.
        """
        if self.tenants:
            return (self.policy,) + tuple(self.tenants)
        return (self.policy, self.fg, self.bg)

    def to_dict(self):
        data = {
            "policy": self.policy,
            "backend": self.backend,
            "fg": self.fg,
            "bg": self.bg,
            "fg_ways": self.fg_ways,
            "bg_ways": self.bg_ways,
            "metrics": dict(self.metrics),
            "units": dict(self.units),
            "provenance": dict(self.provenance),
        }
        if self.tenants:
            data["tenants"] = list(self.tenants)
        return data

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValidationError(f"run record is not a mapping: {data!r}")
        tenants = data.get("tenants", ())
        if isinstance(tenants, (str, bytes, dict)) or not all(
            isinstance(t, str) for t in tenants
        ):
            raise ValidationError(
                f"malformed run record: 'tenants' must be a list of "
                f"names, got {tenants!r}"
            )
        try:
            return cls(
                policy=data["policy"],
                backend=data["backend"],
                fg=data["fg"],
                bg=data["bg"],
                fg_ways=int(data["fg_ways"]),
                bg_ways=int(data["bg_ways"]),
                metrics={k: float(v) for k, v in data["metrics"].items()},
                units=dict(data.get("units", {})),
                provenance=dict(data.get("provenance", {})),
                tenants=tuple(tenants),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"malformed run record: {exc!r}") from exc


@dataclass
class RunSet:
    """A named batch of run records from one invocation."""

    records: list
    backend: str = ""
    model_version: str = ""
    meta: dict = field(default_factory=dict)

    def by_key(self):
        """``{(policy, fg, bg): record}``; later duplicates win."""
        return {record.key: record for record in self.records}

    def to_dict(self):
        return {
            "runset_version": RUNSET_VERSION,
            "backend": self.backend,
            "model_version": self.model_version,
            "meta": dict(self.meta),
            "records": [record.to_dict() for record in self.records],
        }


def record_from_outcome(outcome, units=None, provenance=None):
    """A pair :class:`RunRecord` (no ``tenants``) from a policy-layer
    ``PolicyOutcome``."""
    return _outcome_record(outcome, units, provenance, tenants=())


def record_from_group_outcome(outcome, units=None, provenance=None):
    """A group :class:`RunRecord` from a policy-layer ``PolicyOutcome``.

    ``fg``/``bg`` summarize the group (primary name, "+"-joined peers)
    for display; the record's identity is the full ``tenants`` tuple.
    """
    return _outcome_record(
        outcome, units, provenance, tenants=tuple(outcome.names)
    )


def _outcome_record(outcome, units, provenance, tenants):
    m = outcome.measurement
    fg_ways, bg_ways = m.fg_ways, m.bg_ways
    metrics = {
        "fg_cost": float(m.fg_cost),
        "bg_rate": float(m.bg_rate),
        "fg_ways": float(fg_ways),
        "bg_ways": float(bg_ways),
    }
    prov = dict(provenance or {})
    actions = m.extra.get("actions")
    if actions is not None:
        prov.setdefault("dynamic_actions", len(actions))
    if outcome.sweep:
        prov.setdefault("sweep_points", len(outcome.sweep))
    if outcome.plan is not None:
        prov.setdefault("tenant_classes", dict(outcome.plan.classes))
    return RunRecord(
        policy=outcome.policy,
        backend=m.backend,
        fg=m.fg_name,
        bg=m.bg_name,
        fg_ways=fg_ways,
        bg_ways=bg_ways,
        metrics=metrics,
        units=dict(units or {}),
        provenance=prov,
        tenants=tenants,
    )


def runset_from_outcomes(outcomes, backend=None, capabilities=None, meta=None):
    """A :class:`RunSet` from policy outcomes (one backend per set).

    Outcomes of more than two tenants become group records; pairs keep
    the pair record shape.
    """
    from repro import __version__

    units = {}
    if capabilities is not None:
        units = {
            "fg_cost": capabilities.fg_cost_unit,
            "bg_rate": capabilities.bg_rate_unit,
        }
    records = [
        record_from_group_outcome(o, units=units)
        if len(o.names) > 2
        else record_from_outcome(o, units=units)
        for o in outcomes
    ]
    names = {record.backend for record in records}
    if backend is None:
        backend = capabilities.name if capabilities else "|".join(sorted(names))
    return RunSet(
        records=records,
        backend=backend,
        model_version=__version__,
        meta=dict(meta or {}),
    )


def save_runset(runset, path):
    """Atomically write a :class:`RunSet` as versioned JSON."""
    _atomic_write_json(runset.to_dict(), path)
    return len(runset.records)


# -- multi-shard run-set stores ----------------------------------------------
#
# A campaign (or any set of concurrent writers) persists its records as
# many small shard files in one directory. Each writer gets a unique
# filename — pid plus a per-process counter — so two processes (or two
# shards of one process) can never race on one path; there is no
# last-write-wins ``os.replace`` between writers, only within a single
# shard's own atomic tmp-then-replace.

_shard_counter = itertools.count()


def shard_path(directory, prefix="shard"):
    """A fresh, collision-free shard filename inside ``directory``."""
    while True:
        name = f"{prefix}-{os.getpid()}-{next(_shard_counter):06d}.json"
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            return path


def save_runset_shard(runset, directory, prefix="shard"):
    """Atomically write a RunSet as a uniquely named shard file.

    Returns the path written. Safe under concurrent writers: the name
    embeds the writer's pid and a monotonic per-process counter, and the
    write itself is tmp-file + ``os.replace``.
    """
    os.makedirs(directory, exist_ok=True)
    path = shard_path(directory, prefix=prefix)
    _atomic_write_json(runset.to_dict(), path)
    return path


def merge_runsets(runsets, meta=None):
    """One RunSet holding every record of ``runsets``, in input order."""
    runsets = list(runsets)
    records = [record for runset in runsets for record in runset.records]
    backends = sorted({r.backend for r in runsets if r.backend})
    versions = sorted({r.model_version for r in runsets if r.model_version})
    return RunSet(
        records=records,
        backend="|".join(backends),
        model_version=versions[-1] if versions else "",
        meta=dict(meta or {}),
    )


def list_runset_shards(directory):
    """The shard files of a multi-shard store, in sorted (stable) order."""
    return sorted(glob.glob(os.path.join(directory, "*.json")))


def load_runset_dir(directory):
    """Merge every shard file in ``directory`` into one RunSet.

    Raises :class:`~repro.util.errors.ValidationError` naming the
    offending file when any shard is corrupt or foreign-versioned, and
    when the directory holds no shards at all.
    """
    if not os.path.isdir(directory):
        raise ValidationError(f"no run-set directory at {directory}")
    paths = list_runset_shards(directory)
    if not paths:
        raise ValidationError(f"no run-set shards in {directory}")
    return merge_runsets(
        [load_runset(path) for path in paths],
        meta={"shards": len(paths), "directory": os.path.abspath(directory)},
    )


def load_runset(path):
    """Read a :class:`RunSet`; ValidationError on corrupt/foreign files."""
    if not os.path.exists(path):
        raise ValidationError(f"no run set at {path}")
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"corrupt run set {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"corrupt run set {path}: not a JSON object")
    version = payload.get("runset_version")
    if version != RUNSET_VERSION:
        raise ValidationError(
            f"run set {path} has schema version {version!r}; "
            f"this build reads version {RUNSET_VERSION}"
        )
    records = payload.get("records")
    if not isinstance(records, list):
        raise ValidationError(f"corrupt run set {path}: 'records' is not a list")
    return RunSet(
        records=[RunRecord.from_dict(item) for item in records],
        backend=payload.get("backend", ""),
        model_version=payload.get("model_version", ""),
        meta=payload.get("meta", {}) or {},
    )
