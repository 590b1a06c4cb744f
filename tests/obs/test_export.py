"""Tests for the streamed Chrome trace_event file."""

import json

import pytest

from repro.obs.export import CLUSTER_PID, LANES, ChromeTraceSink
from repro.sim.trace import INSTANT, SPAN


def _emit_sample_records(sink) -> None:
    sink.emit(1500.0, "msg_send", node=0, msg="INV", dst=1)
    sink.emit(2500.0, "persist", node=1, key=7, version=(1, 0))
    sink.emit(4000.0, "read_stall", node=0, dur=750.0, key=7)
    sink.emit(5000.0, "recovery_scan", dur=1000.0, nodes=3)  # no node


def _written(tmp_path, emit=_emit_sample_records, name="t.json", **close):
    """The parsed file a sink wrote for ``emit``'s emissions."""
    path = tmp_path / name
    sink = ChromeTraceSink(str(path))
    emit(sink)
    sink.close(**close)
    return json.loads(path.read_text())


def _record_events(tmp_path, emit=_emit_sample_records):
    return [e for e in _written(tmp_path, emit)["traceEvents"]
            if e["ph"] != "M"]


class TestChromeTraceEvents:
    def test_instant_event_fields(self, tmp_path):
        send = _record_events(tmp_path)[0]
        assert send["name"] == "msg_send"
        assert send["ph"] == INSTANT
        assert send["ts"] == pytest.approx(1.5)  # ns -> us
        assert send["pid"] == 1  # node 0 -> pid 1
        assert send["s"] == "t"
        assert send["args"] == {"msg": "INV", "dst": 1}

    def test_span_event_starts_at_time_minus_dur(self, tmp_path):
        stall = _record_events(tmp_path)[2]
        assert stall["ph"] == SPAN
        assert stall["ts"] == pytest.approx((4000.0 - 750.0) / 1000.0)
        assert stall["dur"] == pytest.approx(0.75)

    def test_nodeless_record_goes_to_cluster_pid(self, tmp_path):
        assert _record_events(tmp_path)[3]["pid"] == CLUSTER_PID

    def test_lanes_give_stable_tids(self, tmp_path):
        events = _record_events(tmp_path)
        lane_names = list(LANES)
        # msg_send is a protocol event, persist a durability event.
        assert events[0]["cat"] == "protocol"
        assert events[0]["tid"] == lane_names.index("protocol")
        assert events[1]["cat"] == "durability"
        assert events[1]["tid"] == lane_names.index("durability")

    def test_unknown_category_lands_in_misc_lane(self, tmp_path):
        (event,) = _record_events(
            tmp_path, lambda sink: sink.emit(1.0, "totally_new_category",
                                             node=0))
        assert event["cat"] == "misc"
        assert event["tid"] == len(LANES)

    def test_non_json_details_are_stringified(self, tmp_path):
        (event,) = _record_events(
            tmp_path, lambda sink: sink.emit(1.0, "persist", node=0,
                                             version=(2, 3), obj=object()))
        assert event["args"]["version"] == [2, 3]
        assert isinstance(event["args"]["obj"], str)


class TestChromeTracePayload:
    def test_payload_shape(self, tmp_path):
        extra = {"name": "journey_vp", "ph": SPAN, "pid": 1, "tid": 7,
                 "ts": 0.5, "dur": 1.0}
        payload = _written(tmp_path, meta={"seed": 7}, extra_events=[extra])
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"][-1] == extra
        assert payload["displayTimeUnit"] == "ns"
        assert payload["otherData"] == {"record_count": 4, "seed": 7}

    def test_metadata_names_processes_and_threads(self, tmp_path):
        meta = [e for e in _written(tmp_path)["traceEvents"]
                if e["ph"] == "M"]
        names = {(e["name"], e["pid"], e["args"]["name"]) for e in meta}
        assert ("process_name", CLUSTER_PID, "cluster") in names
        assert ("process_name", 1, "node0") in names
        assert ("process_name", 2, "node1") in names
        assert any(e["name"] == "thread_name"
                   and e["args"]["name"] == "protocol" for e in meta)

    def test_events_are_sorted_by_time(self, tmp_path):
        def emit(sink):
            sink.emit(13.5, "net_send", node=0, dur=3.5)
            sink.emit(10.0, "msg_send", node=0)

        events = _record_events(tmp_path, emit)
        assert [e["name"] for e in events] == ["msg_send", "net_send"]

    def test_written_file_parses_and_is_deterministic(self, tmp_path):
        meta = {"model": "<Causal, Eventual>"}
        a = _written(tmp_path, name="a.json", meta=meta)
        b = _written(tmp_path, name="b.json", meta=meta)
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())
        assert a == b
        for event in a["traceEvents"]:
            assert "ph" in event and "pid" in event and "tid" in event
            if event["ph"] != "M":
                assert "ts" in event


class TestChromeTraceSink:
    def test_streams_one_event_per_emission(self, tmp_path):
        def emit(sink):
            sink.emit(100.0, "msg_send", node=2, msg="ACK")
            sink.emit(250.0, "read_stall", node=0, dur=50.0)
            sink.emit(300.0, "msg_send", node=1)
            assert len(sink) == 3 and sink.dropped == 0
            assert sink.categories() == {"msg_send": 2, "read_stall": 1}

        send, stall, _ = _record_events(tmp_path, emit)
        assert send == {"name": "msg_send", "cat": "protocol", "ph": "i",
                        "pid": 3, "tid": 1, "ts": 0.1, "s": "t",
                        "args": {"msg": "ACK"}}
        assert stall["ph"] == "X" and stall["dur"] == 0.05

    def test_lookahead_spans_are_written_in_time_order(self, tmp_path):
        # A span recorded ahead of the clock (net_send: stamped with its
        # computed end) waits until the stream catches up with it.
        def emit(sink):
            sink.emit(10.0, "msg_send", node=0)
            sink.emit(13.5, "net_send", node=0, dur=3.5)
            sink.emit(10.0, "msg_send", node=0, dst=2)
            assert len(sink._ahead) == 1                  # 13.5 held back
            sink.emit(12.0, "write_complete", node=1)
            sink.emit(513.5, "net_deliver", node=2)
            assert not sink._ahead
            sink.emit(600.0, "net_send", node=1, dur=4.0)  # still in flight

        events = _record_events(tmp_path, emit)
        assert [e["ts"] + e.get("dur", 0.0) for e in events] == \
            pytest.approx([0.01, 0.01, 0.012, 0.0135, 0.5135, 0.6])
        assert events[1]["args"] == {"dst": 2}
