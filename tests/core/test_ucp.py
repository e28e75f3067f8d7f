"""UCP (Qureshi & Patt) — the paper's related-work baseline [29]."""

import pytest

from repro.core.ucp import miss_curve, partition_ucp, run_ucp
from repro.util.errors import ValidationError
from repro.workloads import get_application


def flat_curve(mpki, num_ways=12):
    return {w: mpki for w in range(1, num_ways + 1)}


def linear_curve(start, slope, num_ways=12):
    return {w: max(0.0, start - slope * w) for w in range(1, num_ways + 1)}


class TestPartition:
    def test_ways_fully_distributed(self):
        out = partition_ucp({"a": linear_curve(50, 2), "b": linear_curve(50, 2)})
        assert sum(out.ways_by_app.values()) == 12

    def test_masks_disjoint_and_contiguous(self):
        out = partition_ucp({"a": linear_curve(50, 2), "b": flat_curve(5)})
        masks = list(out.masks_by_app.values())
        assert not masks[0].overlaps(masks[1])
        assert masks[0].count + masks[1].count == 12

    def test_utility_goes_to_the_hungry_app(self):
        out = partition_ucp(
            {"hungry": linear_curve(100, 8), "full": flat_curve(10)}
        )
        assert out.ways_by_app["hungry"] > out.ways_by_app["full"]

    def test_flat_curves_split_evenly(self):
        out = partition_ucp({"a": flat_curve(10), "b": flat_curve(10)})
        assert out.ways_by_app["a"] == out.ways_by_app["b"] == 6

    def test_lookahead_handles_nonconvex_cliff(self):
        """A curve that only improves after 8 ways (a cliff) must still
        attract the allocation — the lookahead property."""
        cliff = {w: (100.0 if w < 8 else 5.0) for w in range(1, 13)}
        out = partition_ucp({"cliffy": cliff, "flat": flat_curve(10)})
        assert out.ways_by_app["cliffy"] >= 8

    def test_min_ways_respected(self):
        out = partition_ucp(
            {"a": linear_curve(100, 8), "b": flat_curve(1)}, min_ways=2
        )
        assert out.ways_by_app["b"] >= 2

    def test_weights_tilt_the_division(self):
        curves = {"a": linear_curve(50, 3), "b": linear_curve(50, 3)}
        unweighted = partition_ucp(curves)
        weighted = partition_ucp(curves, weights={"a": 5.0})
        assert weighted.ways_by_app["a"] >= unweighted.ways_by_app["a"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            partition_ucp({})
        with pytest.raises(ValidationError):
            partition_ucp({"a": {1: 5.0}})  # incomplete curve
        with pytest.raises(ValidationError):
            partition_ucp(
                {f"a{i}": flat_curve(1) for i in range(13)}, min_ways=1
            )


class TestMissCurve:
    def test_from_application_model(self):
        mcf = get_application("429.mcf")
        curve = miss_curve(mcf, 0.5, 12)
        assert set(curve) == set(range(1, 13))
        assert curve[2] >= curve[12]

    def test_direct_mapped_point_elevated(self):
        batik = get_application("batik")
        curve = miss_curve(batik, 0.5, 12)
        assert curve[1] > curve[2]


class TestRunUcp:
    def test_baseline_contrast_with_biased(self, machine):
        """UCP minimizes total misses; biased protects the foreground.
        The paper's point: miss-optimal is not responsiveness-optimal."""
        from .._pairs import pair_policy

        fg = get_application("471.omnetpp")
        bg = get_application("canneal")
        ucp = run_ucp(machine, fg, bg)
        biased = pair_policy(machine, fg, bg, "biased")
        assert ucp.policy == "ucp"
        assert 1 <= ucp.fg_ways <= 11
        # UCP gives the background more cache than the fg-protective split...
        assert ucp.bg_ways >= biased.bg_ways
        # ...at the cost of more foreground degradation.
        assert ucp.fg_runtime_s >= biased.fg_runtime_s
