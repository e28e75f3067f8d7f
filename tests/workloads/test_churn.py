"""Declarative churn schedules and their flush-free replay.

The schedule layer is pure host-side logic (validated declaratively,
driven through the controller protocol); the replay contract is the
paper's: membership changes re-apportion way masks between epochs with
no flush, and the reallocation timeline is byte-equal whether the
native epoch kernel or the pure-Python driver runs it.
"""

import json
import os

import pytest

from repro.analysis.experiments import trace_group_spec
from repro.backend import TraceBackend
from repro.core.policies import run_policy
from repro.util.errors import ValidationError
from repro.workloads.churn import (
    ChurnController,
    ChurnEvent,
    ChurnSchedule,
)

from .._native import without_native

ACCESSES = 6_000
EPOCH = 1_500


@pytest.fixture(scope="module", autouse=True)
def _module_pack_cache(tmp_path_factory):
    from repro.workloads import tracepack

    saved_packs = tracepack._OPEN_PACKS
    saved_env = os.environ.get("REPRO_TRACE_CACHE")
    tracepack._OPEN_PACKS = {}
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("traces"))
    yield
    tracepack._OPEN_PACKS = saved_packs
    if saved_env is None:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    else:
        os.environ["REPRO_TRACE_CACHE"] = saved_env


class TestSchedule:
    def test_from_spec_round_trips_the_payload(self):
        spec = [
            {"tenant": "chase", "epoch": 1, "action": "join"},
            {"tenant": "stream", "epoch": 3, "action": "leave"},
        ]
        schedule = ChurnSchedule.from_spec(spec)
        assert schedule.to_payload() == spec
        assert schedule.joined_tenants == {"chase"}

    def test_event_validation(self):
        with pytest.raises(ValidationError, match="tenant name"):
            ChurnEvent(tenant="", epoch=1, action="join")
        with pytest.raises(ValidationError, match="epoch boundaries"):
            ChurnEvent(tenant="a", epoch=0, action="join")
        with pytest.raises(ValidationError, match="join"):
            ChurnEvent(tenant="a", epoch=1, action="restart")

    def test_duplicate_events_rejected(self):
        with pytest.raises(ValidationError, match="two events"):
            ChurnSchedule(events=(
                ChurnEvent("a", 2, "join"), ChurnEvent("a", 2, "leave"),
            ))

    def test_from_spec_rejects_malformed_entries(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            ChurnSchedule.from_spec([{"tenant": "a", "epoch": 1,
                                      "action": "join", "why": "x"}])
        with pytest.raises(ValidationError, match="missing"):
            ChurnSchedule.from_spec([{"tenant": "a", "epoch": 1}])
        with pytest.raises(ValidationError, match="must be an object"):
            ChurnSchedule.from_spec(["join"])

    def test_membership_semantics(self):
        schedule = ChurnSchedule.from_spec([
            {"tenant": "c", "epoch": 2, "action": "join"},
            {"tenant": "b", "epoch": 4, "action": "leave"},
        ])
        names = ("a", "b", "c")
        # A tenant with a join event starts parked; the rest are live.
        assert schedule.membership(0, names) == {"a", "b"}
        assert schedule.membership(1, names) == {"a", "b"}
        assert schedule.membership(2, names) == {"a", "b", "c"}
        assert schedule.membership(4, names) == {"a", "c"}


class TestController:
    def _controller(self, spec, names=("a", "b", "c")):
        return ChurnController(names, ChurnSchedule.from_spec(spec))

    def test_masks_cover_everyone_with_a_parking_way(self):
        ctrl = self._controller([
            {"tenant": "c", "epoch": 1, "action": "join"},
        ])
        masks = ctrl.masks()
        # Two active tenants split the 11-way working region 6/5; the
        # parked joiner sits on the top way so its domain stays resident.
        assert masks["a"].count == 6
        assert masks["b"].count == 5
        assert masks["c"].bits == 1 << 11
        assert all(m.count >= 1 for m in masks.values())

    def test_join_reapportions_without_empty_masks(self):
        ctrl = self._controller([
            {"tenant": "c", "epoch": 1, "action": "join"},
        ])
        new_masks = ctrl.on_tick(0.1, 0.1, {})
        assert new_masks is not None
        assert [new_masks[n].count for n in ("a", "b", "c")] == [4, 4, 3]
        assert ctrl.actions[-1].reason == "join:c"
        assert ctrl.lifetime["c"]["joined_epoch"] == 1

    def test_quiet_epochs_return_none(self):
        ctrl = self._controller([
            {"tenant": "b", "epoch": 3, "action": "leave"},
        ])
        assert ctrl.on_tick(0.1, 0.1, {}) is None
        assert ctrl.on_tick(0.2, 0.1, {}) is None
        assert ctrl.on_tick(0.3, 0.1, {}) is not None
        assert ctrl.lifetime["b"]["left_epoch"] == 3

    def test_lifetime_counters_only_tick_while_active(self):
        ctrl = self._controller([
            {"tenant": "b", "epoch": 1, "action": "leave"},
        ])
        window = {"a": {"accesses": 100, "misses": 10},
                  "b": {"accesses": 200, "misses": 20}}
        ctrl.on_tick(0.1, 0.1, window)  # b leaves after this epoch
        ctrl.on_tick(0.2, 0.1, window)  # b inactive: no accumulation
        assert ctrl.lifetime["a"] == {
            "epochs_active": 2, "accesses": 200, "misses": 20,
            "joined_epoch": 0, "left_epoch": None,
        }
        assert ctrl.lifetime["b"]["epochs_active"] == 1
        assert ctrl.lifetime["b"]["accesses"] == 200

    def test_validation(self):
        with pytest.raises(ValidationError, match="two tenants"):
            ChurnController(["solo"], ChurnSchedule(events=()))
        with pytest.raises(ValidationError, match="unknown tenant"):
            self._controller([{"tenant": "zz", "epoch": 1,
                              "action": "leave"}])
        with pytest.raises(ValidationError, match="empties the roster"):
            self._controller([
                {"tenant": "a", "epoch": 1, "action": "leave"},
                {"tenant": "b", "epoch": 1, "action": "leave"},
                {"tenant": "c", "epoch": 1, "action": "leave"},
            ])
        with pytest.raises(ValidationError, match="active at epoch 0"):
            ChurnController(
                ("a", "b"),
                ChurnSchedule.from_spec([
                    {"tenant": "a", "epoch": 1, "action": "join"},
                    {"tenant": "b", "epoch": 2, "action": "join"},
                ]),
            )


def _replay(schedule_spec):
    backend = TraceBackend(
        total_accesses=ACCESSES, epoch_accesses=EPOCH,
    )
    group = trace_group_spec(
        ("zipf", "stream", "chase"), accesses=ACCESSES,
        footprint_mb=1.0, bg_footprint_mb=2.0,
    )
    controller = ChurnController(
        group.names, ChurnSchedule.from_spec(schedule_spec),
        llc_ways=backend.capabilities().llc_ways,
    )
    return run_policy(backend, group, "dynamic", controller=controller)


def _timeline_payload(outcome):
    m = outcome.measurement
    return json.dumps(
        {
            "timeline": m.extra["timeline"],
            "actions": [
                [a.time_s, a.fg_ways, a.reason, a.mpki]
                for a in m.extra["actions"]
            ],
            "lifetime": m.extra["lifetime"],
            "costs": m.costs,
            "rates": m.rates,
        },
        sort_keys=True,
    )


class TestChurnReplay:
    """Scripted joins/departures through the real epoch replay."""

    SPEC = [
        {"tenant": "chase", "epoch": 1, "action": "join"},
        {"tenant": "stream", "epoch": 2, "action": "leave"},
    ]

    def test_scripted_join_and_departure_land_mid_replay(self):
        outcome = _replay(self.SPEC)
        timeline = outcome.measurement.extra["timeline"]
        reasons = [a.reason for a in outcome.measurement.extra["actions"]]
        assert reasons == ["join:chase", "leave:stream"]
        # The departure straddles an epoch boundary: it fires after
        # epoch 2 of 4, mid-replay, not at either edge.
        epochs = outcome.measurement.extra["epochs"]
        assert [entry["epoch"] for entry in timeline] == [1, 2]
        assert timeline[-1]["epoch"] < epochs
        lifetime = outcome.measurement.extra["lifetime"]
        assert lifetime["chase"]["joined_epoch"] == 1
        assert lifetime["stream"]["left_epoch"] == 2
        assert lifetime["zipf"]["epochs_active"] == epochs
        assert lifetime["stream"]["epochs_active"] == 2
        # Final masks: stream parked on the top way, the others split
        # the working region.
        assert outcome.split.mask_bits[1] == 1 << 11

    def test_replay_is_kernel_invariant_byte_for_byte(self):
        reference = _timeline_payload(_replay(self.SPEC))
        assert _timeline_payload(
            without_native(lambda: _replay(self.SPEC))
        ) == reference
