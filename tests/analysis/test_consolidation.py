"""Shape tests over the consolidation study (Sections 5 and 6).

These check the paper's *qualitative* results: who wins, in which
direction, and with roughly which ordering — not absolute numbers.
A reduced pair set keeps them affordable; the benchmarks run the full
36-pair study.
"""

import pytest

PAIRS = [("C1", "C2"), ("C1", "C4"), ("C4", "C2"), ("C3", "C6"), ("C2", "C1")]


class TestPolicyOrdering:
    @pytest.mark.parametrize("fg,bg", PAIRS)
    def test_biased_never_worse_than_shared_for_fg(self, study, fg, bg):
        shared = study.fg_slowdown(fg, bg, "shared")
        biased = study.fg_slowdown(fg, bg, "biased")
        assert biased <= shared + 0.01

    def test_shared_hurts_cache_sensitive_fg(self, study):
        assert study.fg_slowdown("C1", "C2", "shared") > 1.05

    def test_biased_protects_cache_sensitive_fg(self, study):
        assert study.fg_slowdown("C1", "C2", "biased") < 1.06

    def test_fair_hurts_high_utility_fg(self, study):
        """Fair's 3 MB starves mcf's high-MPKI phases (Section 5.2)."""
        fair = study.fg_slowdown("C1", "C2", "fair")
        biased = study.fg_slowdown("C1", "C2", "biased")
        assert fair > biased + 0.02

    def test_insensitive_fg_untouched_by_any_policy(self, study):
        for policy in ("shared", "fair", "biased"):
            assert study.fg_slowdown("C3", "C6", policy) < 1.02


class TestEnergyAndThroughput:
    def test_consolidation_saves_energy_for_comparable_pairs(self, study):
        assert study.energy_ratio("C1", "C2", "biased") < 0.98

    def test_energy_ratio_never_below_half(self, study):
        """Theoretical bound (Section 5.3): two apps at most halve it."""
        for fg, bg in PAIRS:
            for policy in ("shared", "biased"):
                assert study.energy_ratio(fg, bg, policy) >= 0.5 - 1e-6

    def test_weighted_speedup_above_one(self, study):
        for fg, bg in PAIRS:
            assert study.weighted_speedup(fg, bg, "biased") > 1.0

    def test_single_threaded_pair_nears_two(self, study):
        """Two single-threaded apps barely interfere across 2+2 cores."""
        assert study.weighted_speedup("C1", "C2", "biased") > 1.7

    def test_wall_and_socket_energy_agree_in_direction(self, study):
        sock = study.energy_ratio("C1", "C2", "biased", meter="socket")
        wall = study.energy_ratio("C1", "C2", "biased", meter="wall")
        assert (sock < 1.0) == (wall < 1.0)


class TestDynamicController:
    def test_fg_within_two_percent_of_best_static(self, study):
        """The paper's headline claim for Algorithm 6.2 (Section 6.4)."""
        for fg, bg in PAIRS:
            d = study.dynamic_vs_best_static(fg, bg)
            assert (
                d["fg_slowdown_dynamic"] - d["fg_slowdown_best_static"] < 0.02
            ), (fg, bg)

    def test_phased_fg_converts_slack_to_bg_throughput(self, study):
        d = study.dynamic_vs_best_static("C1", "C4")
        assert d["bg_throughput_dynamic"] > 1.05

    def test_controller_acts_on_phases(self, study):
        _, controller = study.dynamic("C1", "C4")
        reasons = {a.reason.split(":")[0] for a in controller.actions}
        assert "phase-start" in reasons
        assert "stable MPKI" in reasons

    def test_unphased_fg_settles_quietly(self, study):
        _, controller = study.dynamic("C6", "C3")
        # One shrink sequence at startup, then quiet.
        assert len(controller.actions) <= 12


class TestStudyBookkeeping:
    def test_pair_enumeration(self, study):
        assert len(study.ordered_pairs()) == 36
        assert len(study.unordered_pairs()) == 21

    def test_solo_baselines_cached(self, study):
        a = study.solo_fg("C1")
        b = study.solo_fg("C1")
        assert a is b

    def test_unknown_cluster_rejected(self, study):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError):
            study.policy("C9", "C1", "shared")


class TestWarm:
    def test_pooled_warm_equals_a_lazy_serial_study(self, force_pool):
        """Workers compute on the study they inherited; the caches the
        parent merges equal what a serial study computes on demand."""
        from repro.analysis import ConsolidationStudy
        from repro.workloads.registry import representatives

        reps = {k: v for k, v in representatives().items()
                if k in ("C1", "C2")}
        warmed = ConsolidationStudy(reps=reps).warm(workers=2)
        lazy = ConsolidationStudy(reps=reps)
        assert len(warmed._sweeps) == 4
        for fg, bg in lazy.ordered_pairs():
            assert warmed.sweep(fg, bg) == lazy.sweep(fg, bg)
            assert warmed.dynamic(fg, bg)[0] == lazy.dynamic(fg, bg)[0]
            for policy in ("shared", "fair", "biased"):
                assert warmed.policy(fg, bg, policy) == lazy.policy(
                    fg, bg, policy
                )
        for fg, bg in lazy.unordered_pairs():
            for policy in ("shared", "fair", "biased"):
                assert warmed.once(fg, bg, policy) == lazy.once(fg, bg, policy)
        for cluster_id in lazy.cluster_ids():
            assert warmed.solo_fg(cluster_id) == lazy.solo_fg(cluster_id)
            assert warmed.solo_whole(cluster_id) == lazy.solo_whole(cluster_id)
