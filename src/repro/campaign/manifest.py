"""Declarative campaign manifests and their deterministic expansion.

A manifest is a small JSON document naming the axes of an experiment
grid — policies, workload pairs, trace geometries, controller configs,
and backends. ``expand_manifest`` walks the axes in one fixed order and
yields a :class:`CampaignCell` per grid point, each carrying a
content-address (``cell_id``) over everything that determines its
outcome, so a cell's record can be recognised across runs, hosts, and
stores without coordination.

Validation is strict: an unknown key anywhere in the manifest raises
:class:`UnknownManifestKey` listing the valid keys (the CLI turns that
into an exit-2 usage error, like an unknown command-line choice) — a
typo'd axis must never silently shrink a campaign.
"""

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field

from repro.util.errors import ValidationError

# Bump when the cell execution semantics change incompatibly, so stored
# records from older campaign engines stop matching by content address.
# v2: trace `biased` cells choose from a *measured* 11-allocation sweep
# (one batched roster call) instead of profile-derived scores, which can
# move the chosen split.
CAMPAIGN_VERSION = 2

MANIFEST_KEYS = (
    "name",
    "backends",
    "policies",
    "pairs",
    "geometries",
    "controllers",
    "tenants",
    "churn",
)
GEOMETRY_KEYS = (
    "accesses",
    "footprint_mb",
    "bg_footprint_mb",
    "alpha",
    "seed",
)
CONTROLLER_KEYS = ("epoch_accesses", "total_accesses")

BACKEND_NAMES = ("trace", "analytical")
# "static-N" (an explicit disjoint split giving the foreground N ways)
# is accepted in addition to the Section 5 policy names.
BASE_POLICIES = ("shared", "fair", "biased", "dynamic")
# Policies that expand over the N-tenant `tenants` axis. static-N stays
# a pair axis; `cluster` (LFOC-style) is tenant-only.
GROUP_POLICIES = ("shared", "fair", "biased", "dynamic", "cluster")
MAX_MANIFEST_TENANTS = 4  # one trace core per tenant

DEFAULT_GEOMETRY = {
    "accesses": 60_000,
    "footprint_mb": 4.0,
    "bg_footprint_mb": 8.0,
    "alpha": 0.9,
    "seed": 1,
}
DEFAULT_CONTROLLER = {"epoch_accesses": 4_000, "total_accesses": None}


class UnknownManifestKey(ValidationError):
    """An unrecognised manifest key, with the valid vocabulary attached."""

    def __init__(self, where, unknown, valid):
        self.where = where
        self.unknown = tuple(sorted(unknown))
        self.valid = tuple(valid)
        super().__init__(
            f"unknown {where} key(s) {', '.join(map(repr, self.unknown))}; "
            f"valid keys: {', '.join(self.valid)}"
        )


def _check_keys(where, data, valid):
    unknown = set(data) - set(valid)
    if unknown:
        raise UnknownManifestKey(where, unknown, valid)


def static_policy_ways(policy):
    """``"static-9" -> 9``; ``None`` for non-static policy names."""
    if not policy.startswith("static-"):
        return None
    try:
        ways = int(policy.split("-", 1)[1])
    except ValueError:
        raise ValidationError(
            f"malformed static policy {policy!r}: expected 'static-<fg ways>'"
        ) from None
    if not 1 <= ways <= 11:
        raise ValidationError(
            f"static policy {policy!r} out of range: fg ways must be 1..11"
        )
    return ways


@dataclass(frozen=True)
class CampaignManifest:
    """The validated axes of one campaign grid."""

    name: str
    backends: tuple = ("trace",)
    policies: tuple = ("shared", "fair", "biased")
    pairs: tuple = ()  # ((fg, bg), ...)
    geometries: tuple = ()  # (frozen geometry dicts as sorted item tuples)
    controllers: tuple = ()
    tenants: tuple = ()  # ((kind, kind, ...), ...) N-tenant rosters
    churn: tuple = ()  # (((tenant, epoch, action), ...), ...) schedules

    def geometry_dicts(self):
        return [dict(g) for g in self.geometries]

    def controller_dicts(self):
        return [dict(c) for c in self.controllers]

    def churn_specs(self):
        """Each schedule as the declarative event-dict list."""
        return [
            [
                {"tenant": tenant, "epoch": epoch, "action": action}
                for tenant, epoch, action in schedule
            ]
            for schedule in self.churn
        ]


@dataclass(frozen=True)
class CampaignCell:
    """One grid point: everything needed to run and re-identify it.

    ``geometry`` and ``controller`` are stored as sorted item tuples so
    the cell is hashable and picklable; ``cell_id`` is a sha256 content
    address over the cell payload plus the campaign schema and model
    versions — the key the store deduplicates on.
    """

    backend: str
    policy: str
    fg: str
    bg: str
    geometry: tuple = ()
    controller: tuple = ()
    # N-tenant group cells: the roster of trace kinds (in tenant order)
    # and, for dynamic cells, the churn schedule. Pair cells leave both
    # empty, which also keeps them OUT of the cell_id payload — pair
    # content addresses are unchanged from campaign v2 stores.
    tenants: tuple = ()
    churn: tuple = ()
    index: int = 0

    @property
    def geometry_dict(self):
        return dict(self.geometry)

    @property
    def controller_dict(self):
        return dict(self.controller)

    @property
    def churn_spec(self):
        return [
            {"tenant": tenant, "epoch": epoch, "action": action}
            for tenant, epoch, action in self.churn
        ]

    @functools.cached_property
    def cell_id(self):
        from repro import __version__

        payload = {
            "campaign_version": CAMPAIGN_VERSION,
            "model_version": __version__,
            "backend": self.backend,
            "policy": self.policy,
            "fg": self.fg,
            "bg": self.bg,
            "geometry": dict(self.geometry),
            "controller": dict(self.controller),
        }
        if self.tenants:
            payload["tenants"] = list(self.tenants)
        if self.churn:
            payload["churn"] = self.churn_spec
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        return digest[:16]

    def __getstate__(self):
        # Pickle the fields only, never the cached cell_id.
        state = dict(self.__dict__)
        state.pop("cell_id", None)
        return state


def _freeze(data):
    return tuple(sorted(data.items()))


def manifest_from_dict(data, where="manifest"):
    """Validate a parsed manifest document into a CampaignManifest."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} is not a JSON object: {data!r}")
    _check_keys(where, data, MANIFEST_KEYS)

    name = data.get("name", "campaign")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{where}: 'name' must be a non-empty string")

    backends = tuple(data.get("backends", ("trace",)))
    for backend in backends:
        if backend not in BACKEND_NAMES:
            raise ValidationError(
                f"{where}: unknown backend {backend!r}; "
                f"valid backends: {', '.join(BACKEND_NAMES)}"
            )

    tenants = data.get("tenants", ())
    frozen_tenants = []
    for i, roster in enumerate(tenants):
        if not isinstance(roster, (list, tuple)):
            raise ValidationError(
                f"{where}: tenants #{i} must be a list of 2.."
                f"{MAX_MANIFEST_TENANTS} trace kinds, got {roster!r}"
            )
        if not 2 <= len(roster) <= MAX_MANIFEST_TENANTS:
            raise ValidationError(
                f"{where}: tenants #{i} must name 2.."
                f"{MAX_MANIFEST_TENANTS} tenants (one trace core each), "
                f"got {len(roster)}"
            )
        frozen_tenants.append(tuple(str(kind) for kind in roster))
    if frozen_tenants and "analytical" in backends:
        raise ValidationError(
            f"{where}: the 'tenants' axis names synthetic trace kinds "
            "and expands on the trace backend only"
        )

    policies = tuple(data.get("policies", ("shared", "fair", "biased")))
    if not policies:
        raise ValidationError(f"{where}: 'policies' must not be empty")
    for policy in policies:
        if policy == "cluster":
            if not frozen_tenants:
                raise ValidationError(
                    f"{where}: the 'cluster' policy needs a 'tenants' axis"
                )
            continue
        if policy not in BASE_POLICIES:
            static_policy_ways(policy)  # raises unless a valid static-N

    pairs = data.get("pairs", ())
    if not pairs and not frozen_tenants:
        raise ValidationError(
            f"{where}: 'pairs' must list [fg, bg] entries (or a "
            "'tenants' axis must be given)"
        )
    frozen_pairs = []
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValidationError(
                f"{where}: each pair must be a [fg, bg] list, got {pair!r}"
            )
        frozen_pairs.append((str(pair[0]), str(pair[1])))
    if not frozen_pairs:
        for policy in policies:
            if static_policy_ways(policy) is not None:
                raise ValidationError(
                    f"{where}: static policy {policy!r} expands over "
                    "'pairs', which is empty"
                )

    churn = data.get("churn", ())
    frozen_churn = []
    if churn:
        from repro.workloads.churn import ChurnSchedule

        if not frozen_tenants:
            raise ValidationError(
                f"{where}: the 'churn' axis needs a 'tenants' axis"
            )
        if "dynamic" not in policies:
            raise ValidationError(
                f"{where}: the 'churn' axis only applies to the "
                "'dynamic' policy, which is not listed"
            )
        for i, spec in enumerate(churn):
            if not isinstance(spec, (list, tuple)):
                raise ValidationError(
                    f"{where}: churn #{i} must be a list of "
                    "{tenant, epoch, action} events"
                )
            schedule = ChurnSchedule.from_spec(spec)  # validates events
            frozen_churn.append(tuple(
                (e.tenant, e.epoch, e.action) for e in schedule.events
            ))

    geometries = data.get("geometries", ()) or [{}]
    frozen_geometries = []
    for i, geometry in enumerate(geometries):
        if not isinstance(geometry, dict):
            raise ValidationError(
                f"{where}: geometry #{i} is not an object: {geometry!r}"
            )
        _check_keys(f"geometry #{i}", geometry, GEOMETRY_KEYS)
        merged = dict(DEFAULT_GEOMETRY)
        merged.update(geometry)
        if int(merged["accesses"]) < 1:
            raise ValidationError(
                f"{where}: geometry #{i}: accesses must be positive"
            )
        frozen_geometries.append(_freeze(merged))

    controllers = data.get("controllers", ()) or [{}]
    frozen_controllers = []
    for i, controller in enumerate(controllers):
        if not isinstance(controller, dict):
            raise ValidationError(
                f"{where}: controller #{i} is not an object: {controller!r}"
            )
        _check_keys(f"controller #{i}", controller, CONTROLLER_KEYS)
        merged = dict(DEFAULT_CONTROLLER)
        merged.update(controller)
        frozen_controllers.append(_freeze(merged))

    return CampaignManifest(
        name=name,
        backends=backends,
        policies=policies,
        pairs=tuple(frozen_pairs),
        geometries=tuple(frozen_geometries),
        controllers=tuple(frozen_controllers),
        tenants=tuple(frozen_tenants),
        churn=tuple(frozen_churn),
    )


def load_manifest(path):
    """Read and validate a JSON manifest file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"no manifest at {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"corrupt manifest {path}: {exc}") from exc
    return manifest_from_dict(data, where=f"manifest {path}")


def expand_manifest(manifest):
    """The deterministic cell list for a manifest.

    Axis order is backend -> policy -> pair -> geometry -> controller.
    Non-dynamic cells collapse the controller axis (a controller config
    cannot change their outcome, so expanding it would mint duplicate
    content addresses); analytical cells likewise collapse the geometry
    axis (geometries parameterize synthetic traces, which the interval
    engine does not consume).
    """
    cells = []
    for backend, policy in itertools.product(
        manifest.backends, manifest.policies
    ):
        if backend == "analytical" and static_policy_ways(policy) is not None:
            # Static splits are a trace-grid axis; the analytical grid
            # keeps the paper's four policies.
            raise ValidationError(
                f"policy {policy!r} is not supported on the analytical "
                "backend"
            )
        # The combined workload axis: pairs first (unchanged order, so
        # existing pair campaigns keep their cell sequence), then the
        # N-tenant rosters. `cluster` is tenant-only; static-N is
        # pair-only; the tenants axis itself is trace-only.
        workloads = []
        if policy != "cluster":
            workloads.extend(("pair", pair) for pair in manifest.pairs)
        if backend == "trace" and static_policy_ways(policy) is None:
            workloads.extend(("group", roster) for roster in manifest.tenants)
        for kind, workload in workloads:
            geometries = (
                manifest.geometries if backend == "trace" else ((),)
            )
            for geometry in geometries:
                controllers = (
                    manifest.controllers if policy == "dynamic" else ((),)
                )
                for controller in controllers:
                    # The churn axis only varies dynamic group cells;
                    # everything else collapses it (a schedule cannot
                    # change a static cell's outcome).
                    if kind == "group" and policy == "dynamic":
                        churns = ((),) + tuple(manifest.churn)
                    else:
                        churns = ((),)
                    for churn in churns:
                        if kind == "pair":
                            fg, bg = workload
                            tenants = ()
                        else:
                            fg = workload[0]
                            bg = "+".join(workload[1:])
                            tenants = workload
                        cells.append(
                            CampaignCell(
                                backend=backend,
                                policy=policy,
                                fg=fg,
                                bg=bg,
                                geometry=geometry,
                                controller=controller,
                                tenants=tenants,
                                churn=churn,
                                index=len(cells),
                            )
                        )
    ids = [cell.cell_id for cell in cells]
    if len(set(ids)) != len(ids):
        raise ValidationError(
            "manifest expands to duplicate cells (identical axis values "
            "listed twice?)"
        )
    return cells


def axis_counts(cells):
    """``{axis: {value: count}}`` for the dry-run report."""
    counts = {
        "backend": {},
        "policy": {},
        "pair": {},
        "geometry": {},
    }
    for cell in cells:
        counts["backend"][cell.backend] = (
            counts["backend"].get(cell.backend, 0) + 1
        )
        counts["policy"][cell.policy] = counts["policy"].get(cell.policy, 0) + 1
        if cell.tenants:
            counts.setdefault("tenants", {})
            label = "+".join(cell.tenants)
            counts["tenants"][label] = counts["tenants"].get(label, 0) + 1
        else:
            pair = f"{cell.fg}+{cell.bg}"
            counts["pair"][pair] = counts["pair"].get(pair, 0) + 1
        geometry = json.dumps(dict(cell.geometry), sort_keys=True)
        counts["geometry"][geometry] = counts["geometry"].get(geometry, 0) + 1
    return counts
