"""JourneyTracker unit tests: correlation and derived points.

These drive the tracker directly through its tracer interface with a
hand-built emission sequence, so every correlation rule (key+version,
op_id side-map, NVM span matching, causal buffering) is pinned without
running a simulation.
"""

from repro.obs import JourneyTracker, UpdateJourney

V = (1, 0)


def issue(tracker, key=7, version=V, node=0, time=100.0, **details):
    tracker.emit(time, "write_issue", node=node, key=key, version=version,
                 start=details.pop("start", time), **details)


def full_journey(tracker, key=7, version=V):
    """Issue at n0, replicate to n1/n2, apply + persist everywhere."""
    issue(tracker, key=key, version=version, time=100.0, start=90.0,
          stall_ns=4.0)
    for dst, send in ((1, 110.0), (2, 112.0)):
        tracker.emit(send, "msg_send", node=0, msg="INV", dst=dst,
                     key=key, version=version, op_id=55)
    for node, recv in ((1, 150.0), (2, 160.0)):
        tracker.emit(recv, "msg_recv", node=node, msg="INV",
                     key=key, version=version, op_id=55)
    for node, apply_at in ((0, 105.0), (1, 155.0), (2, 170.0)):
        tracker.emit(apply_at, "apply", node=node, key=key, version=version)
    for node, t in ((0, 106.0), (1, 156.0), (2, 171.0)):
        tracker.emit(t, "persist_issue", node=node, key=key, version=version,
                     trigger="eager")
        tracker.emit(t + 20.0, "nvm_persist", node=node, dur=19.0,
                     address=key, service_ns=15.0)
        tracker.emit(t + 20.0, "persist", node=node, key=key, version=version)


class TestCorrelation:
    def test_full_journey_assembled(self):
        tracker = JourneyTracker(3)
        full_journey(tracker)
        journey = tracker.get(7, V)
        assert journey is not None
        assert journey.client_issue_ns == 90.0
        assert journey.issue_ns == 100.0
        assert journey.stall_ns == 4.0
        assert journey.sends == {1: 110.0, 2: 112.0}
        assert journey.recvs == {1: 150.0, 2: 160.0}
        assert journey.applies == {0: 105.0, 1: 155.0, 2: 170.0}
        assert journey.persist_triggers == {0: "eager", 1: "eager",
                                            2: "eager"}
        assert journey.device_ns == {0: 15.0, 1: 15.0, 2: 15.0}
        assert journey.vp_ns(3) == 170.0 - 90.0
        assert journey.dp_ns(3) == 191.0 - 90.0
        assert journey.vp_node == 2 and journey.dp_node == 2

    def test_op_id_side_map_correlates_versionless_messages(self):
        tracker = JourneyTracker(3)
        issue(tracker)
        tracker.emit(110.0, "msg_send", node=0, msg="INV", dst=1,
                     key=7, version=V, op_id=99)
        # ACKs carry only the op_id.
        tracker.emit(140.0, "msg_recv", node=0, msg="ACK", src=1, op_id=99)
        tracker.emit(145.0, "msg_recv", node=0, msg="ACK_P", src=1, op_id=99)
        journey = tracker.get(7, V)
        assert journey.acks == {1: 140.0}
        assert journey.ack_ps == {1: 145.0}

    def test_unknown_update_ignored(self):
        tracker = JourneyTracker(3)
        tracker.emit(50.0, "apply", node=1, key=3, version=(9, 9))
        tracker.emit(60.0, "msg_recv", node=1, msg="INV", op_id=123)
        assert len(tracker) == 0

    def test_lazy_and_chain_sends_marked(self):
        tracker = JourneyTracker(3)
        issue(tracker)
        tracker.emit(110.0, "msg_send", node=0, msg="UPD", dst=1,
                     key=7, version=V, lazy=True)
        tracker.emit(120.0, "msg_send", node=0, msg="UPD", dst=2,
                     key=7, version=V, chain=True)
        assert tracker.get(7, V).lazy_dsts == {1, 2}

    def test_nvm_span_only_matches_completing_write(self):
        tracker = JourneyTracker(1)
        issue(tracker)
        # A span for the same address that ended earlier must not match.
        tracker.emit(120.0, "nvm_persist", node=0, dur=19.0, address=7,
                     service_ns=15.0)
        tracker.emit(130.0, "persist", node=0, key=7, version=V)
        assert tracker.get(7, V).device_ns == {}

    def test_causal_buffer_wait_recorded(self):
        tracker = JourneyTracker(3)
        issue(tracker)
        tracker.emit(150.0, "causal_buffered", node=2, key=7, version=V)
        tracker.emit(180.0, "causal_released", node=2, key=7, version=V)
        assert tracker.get(7, V).buffer_wait_ns == {2: 30.0}


class TestDerived:
    def test_incomplete_points_are_none(self):
        journey = UpdateJourney(key=1, version=V, coordinator=0,
                                client_issue_ns=0.0, issue_ns=1.0)
        assert journey.vp_ns(3) is None and journey.dp_ns(3) is None
        assert journey.vp_node is None and journey.dp_node is None

    def test_point_node_tiebreak_is_highest_id(self):
        journey = UpdateJourney(key=1, version=V, coordinator=0,
                                client_issue_ns=0.0, issue_ns=1.0)
        journey.applies = {0: 5.0, 1: 9.0, 2: 9.0}
        assert journey.vp_node == 2
