import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.backend.protocol import WayUtility
from repro.core.clustering import (
    CLUSTER_RESERVED_WAYS,
    classify_tenant,
    cluster_applications,
    cluster_tenants,
    normalize_features,
)
from repro.util.errors import ValidationError


def _utility(name, full_hits, saturate_at=None, accesses=10_000.0):
    """A synthetic way-utility curve. ``saturate_at`` caps growth so the
    curve reaches its full-cache hits at that allocation."""
    hits = []
    for ways in range(1, 13):
        if saturate_at is None:
            hits.append(full_hits * ways / 12.0)
        else:
            hits.append(full_hits * min(1.0, ways / saturate_at))
    return WayUtility(name=name, hits_by_ways=tuple(hits), accesses=accesses)


class TestNormalization:
    def test_scales_each_column_to_unit_interval(self):
        matrix = normalize_features([[0, 10], [5, 20], [10, 30]])
        assert matrix.min(axis=0).tolist() == [0.0, 0.0]
        assert matrix.max(axis=0).tolist() == [1.0, 1.0]

    def test_constant_column_maps_to_zero(self):
        matrix = normalize_features([[5, 1], [5, 2]])
        assert matrix[:, 0].tolist() == [0.0, 0.0]


class TestClustering:
    def test_obvious_groups_found(self):
        features = {
            "a1": [0.0, 0.0], "a2": [0.05, 0.02],
            "b1": [1.0, 1.0], "b2": [0.95, 0.98],
        }
        result = cluster_applications(features, cut_distance=0.5)
        assert result.num_clusters == 2
        assert result.labels["a1"] == result.labels["a2"]
        assert result.labels["b1"] == result.labels["b2"]
        assert result.labels["a1"] != result.labels["b1"]

    def test_tiny_cut_isolates_everything(self):
        features = {"a": [0.0], "b": [0.5], "c": [1.0]}
        result = cluster_applications(features, cut_distance=0.01)
        assert result.num_clusters == 3

    def test_huge_cut_merges_everything(self):
        features = {"a": [0.0], "b": [0.5], "c": [1.0]}
        result = cluster_applications(features, cut_distance=10.0)
        assert result.num_clusters == 1

    def test_representative_is_closest_to_centroid(self):
        features = {
            "edge1": [0.0, 0.0],
            "centre": [0.5, 0.5],
            "edge2": [1.0, 1.0],
        }
        result = cluster_applications(features, cut_distance=10.0)
        assert result.representatives[1] == "centre"

    def test_single_application(self):
        result = cluster_applications({"only": [1, 2, 3]})
        assert result.num_clusters == 1
        assert result.representatives[1] == "only"

    def test_members_listing(self):
        features = {"a": [0.0], "b": [0.02], "c": [1.0]}
        result = cluster_applications(features, cut_distance=0.3)
        clusters = result.clusters()
        assert sorted(sum(clusters.values(), [])) == ["a", "b", "c"]


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cluster_applications({})

    def test_ragged_vectors_rejected(self):
        with pytest.raises(ValidationError):
            cluster_applications({"a": [1, 2], "b": [1]})

    def test_expected_length_check(self):
        with pytest.raises(ValidationError):
            cluster_applications({"a": [1, 2]}, expected_len=19)

    def test_linkage_matrix_shape(self):
        features = {f"x{i}": [i / 10, i / 5] for i in range(8)}
        result = cluster_applications(features)
        assert result.linkage_matrix.shape == (7, 4)
        assert isinstance(result.features, np.ndarray)


class TestClassifyTenant:
    def test_squanderer_by_hit_yield_not_miss_ratio(self):
        # LLC-filtered traces are inherently miss-heavy; the rule is
        # "full cache yields almost no hits", not an absolute ratio.
        assert classify_tenant(_utility("s", full_hits=10.0)) == "squanderer"
        assert classify_tenant(_utility("s", full_hits=0.0)) == "squanderer"

    def test_insensitive_saturates_early(self):
        utility = _utility("i", full_hits=5_000.0, saturate_at=2)
        assert classify_tenant(utility) == "insensitive"

    def test_sensitive_keeps_growing(self):
        utility = _utility("g", full_hits=5_000.0)  # linear in ways
        assert classify_tenant(utility) == "sensitive"

    def test_thresholds_are_tunable(self):
        utility = _utility("s", full_hits=10.0)
        assert classify_tenant(
            utility, squander_hit_fraction=0.0001
        ) != "squanderer"


class TestClusterTenants:
    def _utilities(self):
        return {
            "hot": _utility("hot", 5_000.0),
            "warm": _utility("warm", 4_000.0),
            "early": _utility("early", 3_000.0, saturate_at=2),
            "cold": _utility("cold", 5.0),
        }

    def test_sensitive_tenants_get_one_cluster_each(self):
        plan = cluster_tenants(
            self._utilities(), names=("hot", "warm", "early", "cold")
        )
        assert plan.classes == {
            "hot": "sensitive", "warm": "sensitive",
            "early": "insensitive", "cold": "squanderer",
        }
        # 12 - 2 (insensitive) - 1 (squanderer) = 9 ways for two
        # sensitive clusters, remainder to the earliest.
        assert [c[2] for c in plan.clusters] == [5, 4, 2, 1]
        assert plan.split.way_counts == (5, 4, 2, 1)

    def test_shared_clusters_share_one_mask(self):
        utilities = {
            "a": _utility("a", 5_000.0),
            "b": _utility("b", 3_000.0, saturate_at=2),
            "c": _utility("c", 2_000.0, saturate_at=2),
        }
        plan = cluster_tenants(utilities, names=("a", "b", "c"))
        bits = dict(zip(plan.names, plan.split.mask_bits))
        assert bits["b"] == bits["c"]
        assert bits["a"] & bits["b"] == 0

    def test_masks_pack_bottom_up_and_cover_the_cache(self):
        plan = cluster_tenants(
            self._utilities(), names=("hot", "warm", "early", "cold")
        )
        covered = 0
        for _, _, ways in plan.clusters:
            covered += ways
        assert covered == 12
        assert plan.split.mask_bits[0] == 0x1F  # hot: bottom 5 ways

    def test_no_sensitive_tenant_leftover_goes_to_insensitive(self):
        utilities = {
            "early": _utility("early", 3_000.0, saturate_at=2),
            "cold": _utility("cold", 0.0),
        }
        plan = cluster_tenants(utilities, names=("early", "cold"))
        reserved = CLUSTER_RESERVED_WAYS["squanderer"]
        assert plan.split.way_counts == (12 - reserved, reserved)

    def test_all_squanderers_share_everything(self):
        utilities = {
            "c1": _utility("c1", 0.0), "c2": _utility("c2", 1.0),
        }
        plan = cluster_tenants(utilities, names=("c1", "c2"))
        assert plan.split.way_counts == (12, 12)
        assert plan.split.mask_bits[0] == plan.split.mask_bits[1]

    def test_missing_curve_rejected(self):
        with pytest.raises(ValidationError, match="no way-utility"):
            cluster_tenants({"a": _utility("a", 1.0)}, names=("a", "b"))

    def test_too_many_sensitive_tenants_rejected(self):
        utilities = {
            f"t{i:02d}": _utility(f"t{i:02d}", 5_000.0) for i in range(12)
        }
        utilities["cold"] = _utility("cold", 0.0)
        with pytest.raises(ValidationError, match="sensitive tenants"):
            cluster_tenants(
                utilities, names=tuple(sorted(utilities))
            )


class TestDendrogram:
    def test_renders_all_merges(self):
        from repro.core.clustering import render_dendrogram

        features = {"a": [0.0], "b": [0.1], "c": [0.9], "d": [1.0]}
        result = cluster_applications(features, cut_distance=0.5)
        text = render_dendrogram(result)
        assert text.count("+") == 3  # n-1 merges
        assert "a" in text and "d" in text
        assert "*" in text  # the cross-cut merge is marked

    def test_single_application_message(self):
        from repro.core.clustering import render_dendrogram

        result = cluster_applications({"only": [1.0]})
        assert "only" in render_dendrogram(result)

    def test_member_counts_shown(self):
        from repro.core.clustering import render_dendrogram

        features = {"a": [0.0], "b": [0.01], "c": [0.02], "d": [1.0]}
        result = cluster_applications(features, cut_distance=0.5)
        assert "[2 apps]" in render_dendrogram(result)


class TestLazyScipy:
    def test_importing_the_campaign_engine_loads_no_scipy(self):
        """Only ``cluster_applications`` (the Fig. 5 dendrogram) needs
        scipy, so it imports it on first call, not at module load."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, repro.campaign; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"
