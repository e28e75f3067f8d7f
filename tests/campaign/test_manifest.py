"""Manifest validation, expansion, and content addressing."""

import json

import pytest

from repro.campaign import (
    UnknownManifestKey,
    expand_manifest,
    load_manifest,
    manifest_from_dict,
)
from repro.campaign.manifest import axis_counts, static_policy_ways
from repro.util.errors import ValidationError


def small_manifest(**overrides):
    data = {
        "name": "grid",
        "backends": ["trace"],
        "policies": ["shared", "fair", "static-3"],
        "pairs": [["zipf", "stream"], ["stride", "zipf"]],
        "geometries": [{"accesses": 2000}, {"accesses": 2000, "seed": 2}],
    }
    data.update(overrides)
    return manifest_from_dict(data)


class TestValidation:
    def test_unknown_top_level_key_lists_vocabulary(self):
        with pytest.raises(UnknownManifestKey) as excinfo:
            manifest_from_dict({"name": "x", "pairs": [["a", "b"]],
                                "polices": ["shared"]})
        assert excinfo.value.unknown == ("polices",)
        assert "policies" in excinfo.value.valid
        assert "valid keys" in str(excinfo.value)

    def test_unknown_geometry_key_rejected(self):
        with pytest.raises(UnknownManifestKey, match="geometry #0"):
            manifest_from_dict(
                {
                    "name": "x",
                    "pairs": [["a", "b"]],
                    "geometries": [{"acceses": 100}],
                }
            )

    def test_unknown_key_is_a_validation_error(self):
        # The CLI maps UnknownManifestKey to exit 2; everything else in
        # main() catches ReproError, so the subclassing must hold.
        with pytest.raises(ValidationError):
            manifest_from_dict({"name": "x", "pairs": [["a", "b"]],
                                "nope": 1})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            small_manifest(backends=["gpu"])

    def test_pairs_required(self):
        with pytest.raises(ValidationError, match="pairs"):
            manifest_from_dict({"name": "x"})

    def test_malformed_static_policy(self):
        with pytest.raises(ValidationError, match="static-<fg ways>"):
            small_manifest(policies=["static-lots"])

    def test_static_policy_range(self):
        with pytest.raises(ValidationError, match="1..11"):
            small_manifest(policies=["static-12"])

    def test_static_policy_parse(self):
        assert static_policy_ways("static-9") == 9
        assert static_policy_ways("shared") is None

    def test_load_manifest_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no manifest"):
            load_manifest(tmp_path / "absent.json")

    def test_load_manifest_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="corrupt manifest"):
            load_manifest(path)


class TestExpansion:
    def test_grid_size_and_determinism(self):
        manifest = small_manifest()
        cells = expand_manifest(manifest)
        # 3 policies x 2 pairs x 2 geometries.
        assert len(cells) == 12
        again = expand_manifest(small_manifest())
        assert [c.cell_id for c in cells] == [c.cell_id for c in again]

    def test_cell_ids_are_unique(self):
        cells = expand_manifest(small_manifest())
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_non_dynamic_cells_collapse_controller_axis(self):
        manifest = small_manifest(
            policies=["shared", "dynamic"],
            controllers=[{"epoch_accesses": 500}, {"epoch_accesses": 1000}],
        )
        cells = expand_manifest(manifest)
        shared = [c for c in cells if c.policy == "shared"]
        dynamic = [c for c in cells if c.policy == "dynamic"]
        # shared: 2 pairs x 2 geometries; dynamic gets the x2 controllers.
        assert len(shared) == 4
        assert len(dynamic) == 8
        assert all(c.controller == () for c in shared)

    def test_analytical_cells_collapse_geometry_axis(self):
        manifest = small_manifest(
            backends=["analytical"], policies=["shared"],
            pairs=[["fop", "batik"]],
        )
        cells = expand_manifest(manifest)
        assert len(cells) == 1
        assert cells[0].geometry == ()

    def test_analytical_rejects_static_policies(self):
        manifest = small_manifest(
            backends=["analytical"], pairs=[["fop", "batik"]]
        )
        with pytest.raises(ValidationError, match="not supported"):
            expand_manifest(manifest)

    def test_cell_id_tracks_axis_values(self):
        base, other = (
            expand_manifest(small_manifest(geometries=[{"seed": s}]))[0]
            for s in (1, 2)
        )
        assert base.cell_id != other.cell_id

    def test_axis_counts_shape(self):
        counts = axis_counts(expand_manifest(small_manifest()))
        assert counts["policy"] == {"shared": 4, "fair": 4, "static-3": 4}
        assert sum(counts["backend"].values()) == 12

    def test_cells_are_picklable_and_json_addressable(self):
        import pickle

        cell = expand_manifest(small_manifest())[0]
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.cell_id == cell.cell_id
        json.dumps(cell.geometry_dict)

    def test_cached_cell_id_equals_a_fresh_cells_id(self):
        import dataclasses
        import pickle

        cells = expand_manifest(small_manifest())
        for cell in cells:
            cached = cell.cell_id
            assert cell.cell_id is cached  # computed once per cell
            fresh = dataclasses.replace(cell)
            assert "cell_id" not in vars(fresh)
            assert fresh.cell_id == cached
            # Equality, hashing and pickling stay field-based.
            bare = dataclasses.replace(cell)
            assert bare == cell and hash(bare) == hash(cell)
            assert "cell_id" not in vars(pickle.loads(pickle.dumps(cell)))


GROUP_ROSTER = ["zipf", "stream", "chase"]
CHURN = [
    {"tenant": "chase", "epoch": 1, "action": "join"},
    {"tenant": "stream", "epoch": 3, "action": "leave"},
]


def group_manifest(**overrides):
    data = {
        "name": "groups",
        "backends": ["trace"],
        "policies": ["shared", "fair", "cluster", "dynamic"],
        "pairs": [],
        "tenants": [GROUP_ROSTER],
        "geometries": [{"accesses": 2000}],
        "controllers": [{"epoch_accesses": 500}],
        "churn": [CHURN],
    }
    data.update(overrides)
    return manifest_from_dict(data)


class TestTenantAxisValidation:
    def test_tenants_roster_size_bounds(self):
        with pytest.raises(ValidationError, match="2..4"):
            group_manifest(tenants=[["zipf"]])
        with pytest.raises(ValidationError, match="2..4"):
            group_manifest(
                tenants=[["zipf", "stream", "chase", "stride", "zipf"]]
            )
        with pytest.raises(ValidationError, match="list of 2..4"):
            group_manifest(tenants=["zipf"])

    def test_tenants_axis_is_trace_only(self):
        with pytest.raises(ValidationError, match="trace backend only"):
            group_manifest(backends=["trace", "analytical"],
                           policies=["shared"], churn=[])

    def test_cluster_policy_needs_tenants(self):
        with pytest.raises(ValidationError, match="'tenants' axis"):
            small_manifest(policies=["cluster"])

    def test_churn_needs_tenants_and_dynamic(self):
        with pytest.raises(ValidationError, match="'tenants' axis"):
            small_manifest(policies=["dynamic"], churn=[CHURN])
        with pytest.raises(ValidationError, match="'dynamic' policy"):
            group_manifest(policies=["shared"], churn=[CHURN])

    def test_churn_events_are_validated_up_front(self):
        with pytest.raises(ValidationError, match="churn action"):
            group_manifest(churn=[[{"tenant": "zipf", "epoch": 1,
                                    "action": "restart"}]])
        with pytest.raises(ValidationError, match="events"):
            group_manifest(churn=[{"tenant": "zipf"}])

    def test_static_policies_need_pairs(self):
        with pytest.raises(ValidationError, match="which is empty"):
            group_manifest(policies=["static-3"], churn=[])

    def test_tenants_axis_alone_satisfies_the_workload_requirement(self):
        manifest = group_manifest()
        assert manifest.pairs == ()
        assert manifest.tenants == (("zipf", "stream", "chase"),)
        assert manifest.churn == (
            (("chase", 1, "join"), ("stream", 3, "leave")),
        )


class TestGroupExpansion:
    def test_group_cells_carry_the_roster(self):
        cells = expand_manifest(group_manifest())
        # shared, fair, cluster, dynamic, dynamic+churn.
        assert len(cells) == 5
        for cell in cells:
            assert cell.tenants == ("zipf", "stream", "chase")
            assert cell.fg == "zipf"
            assert cell.bg == "stream+chase"
        churned = [c for c in cells if c.churn]
        assert len(churned) == 1
        assert churned[0].policy == "dynamic"
        assert churned[0].churn_spec == CHURN

    def test_pair_cells_keep_their_ids_when_tenants_are_added(self):
        # Content addresses must not move for existing pair campaigns:
        # adding a tenants axis introduces group cells without renaming
        # the pair cells or changing their relative order.
        before = expand_manifest(small_manifest(policies=["shared", "fair"]))
        after = expand_manifest(small_manifest(
            policies=["shared", "fair"], tenants=[GROUP_ROSTER]
        ))
        pair_ids = [c.cell_id for c in before]
        assert [c.cell_id for c in after if not c.tenants] == pair_ids
        # 2 policies x 1 roster x 2 geometries of new group cells.
        assert sum(1 for c in after if c.tenants) == 4

    def test_static_and_cluster_policies_do_not_cross_axes(self):
        cells = expand_manifest(small_manifest(
            policies=["static-3", "cluster"], tenants=[GROUP_ROSTER],
        ))
        static = [c for c in cells if c.policy == "static-3"]
        cluster = [c for c in cells if c.policy == "cluster"]
        assert static and all(not c.tenants for c in static)
        assert cluster and all(c.tenants for c in cluster)

    def test_churn_only_varies_dynamic_group_cells(self):
        cells = expand_manifest(group_manifest(
            pairs=[["zipf", "stream"]],
        ))
        for cell in cells:
            if cell.churn:
                assert cell.policy == "dynamic" and cell.tenants
        # The pair dynamic cell collapsed the churn axis.
        pair_dynamic = [
            c for c in cells if c.policy == "dynamic" and not c.tenants
        ]
        assert len(pair_dynamic) == 1

    def test_group_cell_ids_track_roster_and_churn(self):
        base = expand_manifest(group_manifest())
        other_roster = expand_manifest(
            group_manifest(tenants=[["zipf", "stream", "stride"]], churn=[])
        )
        assert not {c.cell_id for c in base} & {
            c.cell_id for c in other_roster
        }
        churned, quiet = (
            [c for c in base if c.policy == "dynamic" and bool(c.churn) == flag][0]
            for flag in (True, False)
        )
        assert churned.cell_id != quiet.cell_id

    def test_axis_counts_report_tenants_separately(self):
        counts = axis_counts(expand_manifest(group_manifest(
            pairs=[["zipf", "stream"]],
        )))
        assert counts["tenants"] == {"zipf+stream+chase": 5}
        assert counts["pair"] == {"zipf+stream": 3}  # no cluster pair cell
