"""The Xie & Loh thrash-containment baseline [38]."""

import pytest

from repro.core.thrash import (
    is_thrashing,
    plan_containment,
    run_thrash_containment,
)
from repro.util.errors import ValidationError
from repro.workloads import get_application


class TestClassification:
    def test_streaming_codes_thrash(self):
        assert is_thrashing(get_application("stream_uncached"))
        assert is_thrashing(get_application("462.libquantum"))
        assert is_thrashing(get_application("streamcluster"))

    def test_cache_friendly_codes_do_not(self):
        for name in ("batik", "fop", "swaptions", "429.mcf", "471.omnetpp"):
            assert not is_thrashing(get_application(name)), name

    def test_low_apki_streamers_excluded(self):
        """A flat miss curve with negligible traffic isn't worth containing."""
        assert not is_thrashing(get_application("blackscholes"))


class TestPlanning:
    def test_no_thrashers_means_full_sharing(self):
        plan = plan_containment(
            [get_application("batik"), get_application("fop")]
        )
        assert plan.thrashing == ()
        assert plan.containment_mask is None
        assert plan.main_mask.count == 12

    def test_thrashers_confined(self):
        fg = get_application("471.omnetpp")
        hog = get_application("462.libquantum")
        plan = plan_containment([fg, hog])
        assert plan.thrashing == ("462.libquantum",)
        assert plan.mask_for(hog).count == 1
        assert plan.mask_for(fg).count == 11
        assert not plan.mask_for(hog).overlaps(plan.mask_for(fg))

    def test_multiple_thrashers_share_the_containment(self):
        apps = [
            get_application("462.libquantum"),
            get_application("470.lbm"),
            get_application("batik"),
        ]
        plan = plan_containment(apps)
        assert len(plan.thrashing) == 2
        assert plan.mask_for(apps[0]) == plan.mask_for(apps[1])

    def test_validation(self):
        with pytest.raises(ValidationError):
            plan_containment([])
        with pytest.raises(ValidationError):
            plan_containment([get_application("batik")], containment_ways=12)


class TestPolicyRun:
    def test_containment_protects_fg_from_streaming_bg(self, machine):
        """The policy's raison d'etre: confining a streaming co-runner
        recovers most of what the biased search achieves, without any
        per-pair sweep."""
        from .._pairs import pair_policy

        fg = get_application("471.omnetpp")
        bg = get_application("462.libquantum")
        shared = pair_policy(machine, fg, bg, "shared")
        contained = run_thrash_containment(machine, fg, bg)
        biased = pair_policy(machine, fg, bg, "biased")
        assert contained.fg_runtime_s < shared.fg_runtime_s
        assert contained.fg_runtime_s <= biased.fg_runtime_s * 1.05

    def test_non_thrashing_pair_degenerates_to_sharing(self, machine):
        from .._pairs import pair_policy

        fg = get_application("batik")
        bg = get_application("fop")
        contained = run_thrash_containment(machine, fg, bg)
        shared = pair_policy(machine, fg, bg, "shared")
        assert contained.fg_ways == shared.fg_ways == 12
        assert contained.fg_runtime_s == pytest.approx(
            shared.fg_runtime_s, rel=1e-9
        )
