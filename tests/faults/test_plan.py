"""Fault-plan parsing and validation."""

import dataclasses
import json

import pytest

from repro.faults import (FaultPlan, load_fault_plan, parse_crash_spec,
                          plan_from_crash_specs)


class TestLoadFaultPlan:
    def test_full_plan_round_trips(self, tmp_path):
        raw = {
            "seed": 11,
            "detection_delay_us": 2.5,
            "events": [
                {"kind": "crash", "node": 2, "at_us": 50,
                 "restart_after_us": 40},
                {"kind": "partition", "at_us": 20, "duration_us": 30,
                 "groups": [[0, 1], [2, 3, 4]]},
                {"kind": "drop", "at_us": 10, "duration_us": 5,
                 "probability": 0.25, "src": 0, "dst": 1},
                {"kind": "delay", "at_us": 15, "duration_us": 5,
                 "extra_us": 2.0},
                {"kind": "duplicate", "at_us": 25, "duration_us": 5,
                 "probability": 0.5},
                {"kind": "nvm_slow", "node": 1, "at_us": 30,
                 "duration_us": 20, "factor": 4.0},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(raw))
        plan = load_fault_plan(str(path))
        assert plan.seed == 11
        assert plan.detection_delay_ns == 2500.0
        assert len(plan.events) == 6
        # Events are time-ordered regardless of authoring order.
        assert [e.at_ns for e in plan.events] == sorted(
            e.at_ns for e in plan.events)
        crash = plan.events_of("crash")[0]
        assert crash.node == 2
        assert crash.at_ns == 50_000.0
        assert crash.restart_after_ns == 40_000.0
        partition = plan.events_of("partition")[0]
        assert partition.groups == ((0, 1), (2, 3, 4))
        assert partition.until_ns == 50_000.0
        # Echo converts back to microseconds.
        echo = plan.to_json()
        assert echo["seed"] == 11
        assert echo["events"][0]["kind"] == "drop"
        assert echo["events"][0]["probability"] == 0.25

    def test_accepts_dict_input(self):
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 0, "at_us": 1}]})
        assert plan.events[0].kind == "crash"
        assert plan.detection_delay_ns == 3000.0

    def test_lossy_only_for_message_kinds(self):
        crash_only = load_fault_plan({"events": [
            {"kind": "crash", "node": 0, "at_us": 1},
            {"kind": "nvm_slow", "node": 1, "at_us": 1, "duration_us": 2,
             "factor": 2.0}]})
        assert not crash_only.lossy
        lossy = load_fault_plan({"events": [
            {"kind": "drop", "at_us": 1, "duration_us": 2,
             "probability": 0.1}]})
        assert lossy.lossy
        assert not FaultPlan().lossy

    @pytest.mark.parametrize("event,message", [
        ({"kind": "meteor", "at_us": 1}, "unknown kind"),
        ({"kind": "crash", "node": 0}, "at_us"),
        ({"kind": "crash", "node": 0, "at_us": 1, "duration_us": 5},
         "restart_after_us, not duration_us"),
        ({"kind": "crash", "node": 0, "at_us": 1, "restart_after_us": 0},
         "restart_after_us must be > 0"),
        ({"kind": "drop", "at_us": 1, "probability": 0.5}, "duration_us"),
        ({"kind": "drop", "at_us": 1, "duration_us": 5, "probability": 1.5},
         "probability"),
        ({"kind": "delay", "at_us": 1, "duration_us": 5}, "extra_us"),
        ({"kind": "nvm_slow", "node": 0, "at_us": 1, "duration_us": 5,
          "factor": 0.0}, "factor"),
        ({"kind": "partition", "at_us": 1, "duration_us": 5,
          "groups": [[0, 1]]}, "groups"),
        ({"kind": "partition", "at_us": 1, "duration_us": 5,
          "groups": [[0, 1], [1, 2]]}, "disjoint"),
        ({"kind": "drop", "at_us": 1, "duration_us": 5, "node": 2},
         "does not take node"),
        ({"kind": "crash", "node": 0, "at_us": 1, "src": 1},
         "does not take src"),
        ({"kind": "crash", "node": 0, "at_us": 1, "banana": True},
         "unknown fields"),
        ({"kind": "crash", "node": 1, "at_us": "nan"}, "at_us must be finite"),
        ({"kind": "crash", "node": 1, "at_us": float("inf")},
         "at_us must be finite"),
        ({"kind": "drop", "at_us": 1, "duration_us": float("nan")},
         "duration_us must be finite"),
        ({"kind": "crash", "node": 0, "at_us": 1,
          "restart_after_us": "nan"}, "restart_after_us must be finite"),
        ({"kind": "nvm_slow", "node": 0, "at_us": 1, "duration_us": 5,
          "factor": "nan"}, "factor must be finite"),
        ({"kind": "crash", "node": 0, "at_us": None}, "at_us must be a number"),
        ({"kind": "partition", "at_us": 1, "duration_us": 5,
          "groups": [[0], [[1]]]}, "group members must be integers"),
        ({"kind": "partition", "at_us": 1, "duration_us": 5,
          "groups": [[0], [1.5]]}, "group members must be integers"),
        ({"kind": "crash", "node": True, "at_us": 1},
         "node must be a non-negative integer or null"),
        ({"kind": "nvm_slow", "node": False, "at_us": 1, "duration_us": 5,
          "factor": 2.0}, "node must be a non-negative integer or null"),
        ({"kind": "drop", "at_us": 1, "duration_us": 5, "src": True},
         "src must be a non-negative integer"),
        ({"kind": "delay", "at_us": 1, "duration_us": 5, "extra_us": 1,
          "dst": False}, "dst must be a non-negative integer"),
    ])
    def test_rejects_bad_events(self, event, message):
        with pytest.raises(ValueError, match=message):
            load_fault_plan({"events": [event]})

    def test_rejects_non_finite_detection_delay(self):
        with pytest.raises(ValueError, match="detection_delay_us must be "
                                             "finite"):
            load_fault_plan({"detection_delay_us": "nan", "events": []})

    def test_rejects_unknown_top_level(self):
        with pytest.raises(ValueError, match="top-level"):
            load_fault_plan({"seeds": 3, "events": []})

    def test_random_node_allowed(self):
        plan = load_fault_plan({"events": [{"kind": "crash", "at_us": 5}]})
        assert plan.events[0].node is None

    @pytest.mark.parametrize("top,message", [
        ({"seed": None}, "seed must be an integer, got None"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "3"}, "seed must be an integer"),
        ({"detection_delay_us": -5}, "detection_delay_us must be >= 0"),
    ])
    def test_rejects_bad_top_level_values(self, top, message):
        """A plan that would end in a traceback mid-run (a null seed, a
        detection scheduled before its crash) or silently run as another
        seed (1.5 as 1) is rejected before anything is simulated."""
        with pytest.raises(ValueError, match=message):
            load_fault_plan({**top, "events": [
                {"kind": "crash", "node": 1, "at_us": 2}]})

    @pytest.mark.parametrize("first, second, message", [
        ({"at_us": 2, "restart_after_us": 6}, {"at_us": 3},
         "crashed at 3 us while still down from an earlier crash "
         r"\(it restarts at 8 us\)"),
        ({"at_us": 2}, {"at_us": 30, "restart_after_us": 1},
         "never restarted"),
        # The crash's entry runs first in the instant: not yet back.
        ({"at_us": 2, "restart_after_us": 3}, {"at_us": 5},
         "restarts at 5 us"),
        ({"at_us": 2, "restart_after_us": 3}, {"at_us": 2},
         "crashed at 2 us"),
    ], ids=["before-restart", "never-restarted", "at-restart",
            "same-instant"])
    def test_rejects_a_crash_of_a_node_still_down(self, first, second,
                                                   message):
        """A second crash before the first one's restart used to be
        accepted: the restart then hit the live node, discarding its
        volatile state, and started its clients a second time."""
        events = [{"kind": "crash", "node": 1, **second},
                  {"kind": "crash", "node": 1, **first}]
        with pytest.raises(ValueError, match=message):
            load_fault_plan({"events": events})
        # The same two crashes of two nodes are a fine plan.
        events[0]["node"] = 2
        assert len(load_fault_plan({"events": events}).events) == 2

    def test_crash_specs_and_merges_reject_a_node_still_down(self):
        assert len(plan_from_crash_specs(["1@2+3", "1@5.5"]).events) == 2
        with pytest.raises(ValueError, match="node 1 is crashed at 3 us"):
            plan_from_crash_specs(["1@2+6", "1@3+1"])
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 1, "at_us": 2,
             "restart_after_us": 6}]})
        with pytest.raises(ValueError, match="node 1 is crashed at 3 us"):
            dataclasses.replace(plan, events=plan.events + (
                parse_crash_spec("1@3+1"),))

    def test_a_seeded_pick_of_a_node_still_down_is_rejected(self):
        plan = load_fault_plan({"events": [
            {"kind": "crash", "at_us": 2, "restart_after_us": 6},
            {"kind": "crash", "node": 1, "at_us": 3}]})
        assert plan.resolved([0, 1, 2], lambda ids: 0).events[0].node == 0
        with pytest.raises(ValueError, match="node 1 is crashed at 3 us"):
            plan.resolved([0, 1, 2], lambda ids: 1)


class TestCrashSpecs:
    def test_spec_without_restart(self):
        event = parse_crash_spec("2@50")
        assert (event.kind, event.node, event.at_ns,
                event.restart_after_ns) == ("crash", 2, 50_000.0, None)

    def test_spec_with_restart(self):
        event = parse_crash_spec("1@30.5+40")
        assert event.node == 1
        assert event.at_ns == 30_500.0
        assert event.restart_after_ns == 40_000.0

    @pytest.mark.parametrize("spec", ["2", "@50", "x@50", "2@", "2@a+b",
                                      "1@nan", "1@inf", "1@10+nan"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError, match="bad crash spec"):
            parse_crash_spec(spec)

    def test_plan_from_specs_sorted(self):
        plan = plan_from_crash_specs(["2@50", "0@10+5"], seed=3)
        assert plan.seed == 3
        assert [e.node for e in plan.events] == [0, 2]
        assert not plan.lossy
