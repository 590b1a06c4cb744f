"""Tests for the Chrome trace_event exporter and the JSONL sink."""

import io
import json

import pytest

from repro.obs.export import (
    CLUSTER_PID,
    JsonlSink,
    LANES,
    chrome_trace_events,
    chrome_trace_payload,
    write_chrome_trace,
)
from repro.sim.trace import INSTANT, SPAN, Tracer


def _tracer_with_sample_records() -> Tracer:
    tracer = Tracer()
    tracer.emit(1500.0, "msg_send", node=0, msg="INV", dst=1)
    tracer.emit(2500.0, "persist", node=1, key=7, version=(1, 0))
    tracer.emit(4000.0, "read_stall", node=0, dur=750.0, key=7)
    tracer.emit(5000.0, "recovery_scan", dur=1000.0, nodes=3)  # no node
    return tracer


class TestChromeTraceEvents:
    def test_instant_event_fields(self):
        tracer = _tracer_with_sample_records()
        events = chrome_trace_events(tracer.records)
        send = events[0]
        assert send["name"] == "msg_send"
        assert send["ph"] == INSTANT
        assert send["ts"] == pytest.approx(1.5)  # ns -> us
        assert send["pid"] == 1  # node 0 -> pid 1
        assert send["s"] == "t"
        assert send["args"] == {"msg": "INV", "dst": 1}

    def test_span_event_starts_at_time_minus_dur(self):
        events = chrome_trace_events(_tracer_with_sample_records().records)
        stall = events[2]
        assert stall["ph"] == SPAN
        assert stall["ts"] == pytest.approx((4000.0 - 750.0) / 1000.0)
        assert stall["dur"] == pytest.approx(0.75)

    def test_nodeless_record_goes_to_cluster_pid(self):
        events = chrome_trace_events(_tracer_with_sample_records().records)
        assert events[3]["pid"] == CLUSTER_PID

    def test_lanes_give_stable_tids(self):
        events = chrome_trace_events(_tracer_with_sample_records().records)
        lane_names = list(LANES)
        # msg_send is a protocol event, persist a durability event.
        assert events[0]["cat"] == "protocol"
        assert events[0]["tid"] == lane_names.index("protocol")
        assert events[1]["cat"] == "durability"
        assert events[1]["tid"] == lane_names.index("durability")

    def test_unknown_category_lands_in_misc_lane(self):
        tracer = Tracer()
        tracer.emit(1.0, "totally_new_category", node=0)
        (event,) = chrome_trace_events(tracer.records)
        assert event["cat"] == "misc"
        assert event["tid"] == len(LANES)

    def test_non_json_details_are_stringified(self):
        tracer = Tracer()
        tracer.emit(1.0, "persist", node=0, version=(2, 3),
                    obj=object())
        (event,) = chrome_trace_events(tracer.records)
        assert event["args"]["version"] == [2, 3]
        assert isinstance(event["args"]["obj"], str)


class TestChromeTracePayload:
    def test_payload_shape(self):
        tracer = _tracer_with_sample_records()
        payload = chrome_trace_payload(tracer.records, dropped=2,
                                       meta={"seed": 7})
        assert isinstance(payload["traceEvents"], list)
        assert payload["otherData"]["record_count"] == 4
        assert payload["otherData"]["dropped_records"] == 2
        assert payload["otherData"]["seed"] == 7

    def test_metadata_names_processes_and_threads(self):
        tracer = _tracer_with_sample_records()
        payload = chrome_trace_payload(tracer.records)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["pid"], e["args"]["name"]) for e in meta}
        assert ("process_name", CLUSTER_PID, "cluster") in names
        assert ("process_name", 1, "node0") in names
        assert ("process_name", 2, "node1") in names
        assert any(e["name"] == "thread_name"
                   and e["args"]["name"] == "protocol" for e in meta)

    def test_events_are_sorted_by_time(self):
        tracer = Tracer()
        tracer.emit(13.5, "net_send", node=0, dur=3.5)
        tracer.emit(10.0, "msg_send", node=0)
        payload = chrome_trace_payload(tracer.records)
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert [e["name"] for e in events] == ["msg_send", "net_send"]

    def test_written_file_parses_and_is_deterministic(self, tmp_path):
        tracer = _tracer_with_sample_records()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(str(a), tracer.records, dropped=0,
                           meta={"model": "<Causal, Eventual>"})
        write_chrome_trace(str(b), tracer.records, dropped=0,
                           meta={"model": "<Causal, Eventual>"})
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        for event in data["traceEvents"]:
            assert "ph" in event and "pid" in event and "tid" in event
            if event["ph"] != "M":
                assert "ts" in event


class TestJsonlSink:
    def test_streams_one_line_per_emission(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit(100.0, "msg_send", node=2, msg="ACK")
        sink.emit(250.0, "read_stall", node=0, dur=50.0)
        sink.close()
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert sink.emitted == 2
        assert lines[0] == {"ts": 100.0, "cat": "msg_send", "node": 2,
                            "ph": "i", "args": {"msg": "ACK"}}
        assert lines[1]["ph"] == "X"
        assert lines[1]["dur"] == 50.0

    def test_lookahead_spans_are_written_in_time_order(self):
        # A span recorded ahead of the clock (net_send: stamped with its
        # computed end) waits until the stream catches up with it.
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit(10.0, "msg_send", node=0)
        sink.emit(13.5, "net_send", node=0, dur=3.5)
        sink.emit(10.0, "msg_send", node=0, dst=2)
        assert len(buffer.getvalue().splitlines()) == 2   # 13.5 held back
        sink.emit(12.0, "write_complete", node=1)
        sink.emit(513.5, "net_deliver", node=2)
        assert len(buffer.getvalue().splitlines()) == 5
        sink.emit(600.0, "net_send", node=1, dur=4.0)     # still in flight
        sink.close()
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert [l["ts"] for l in lines] == [10.0, 10.0, 12.0, 13.5, 513.5,
                                            600.0]
        assert lines[1]["args"] == {"dst": 2}
        assert sink.emitted == 6

    def test_file_destination_and_context_manager(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.span(10.0, 30.0, "write_stall", node=1, key=5)
        (line,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert line["dur"] == 20.0
        assert line["ts"] == 30.0
        assert line["args"] == {"key": 5}
