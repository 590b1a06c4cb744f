"""Tests for the fan-out tracer and the kernel profiler."""

import pytest

from repro.obs import FanoutTracer, KernelProfile, format_kernel
from repro.sim.engine import Simulator
from repro.sim.trace import NullTracer, Tracer


class TestFanoutTracer:
    def test_forwards_to_every_sink(self):
        a, b = Tracer(), Tracer()
        fanout = FanoutTracer([a, b])
        fanout.emit(1.0, "msg_send", node=0, msg="INV")
        fanout.emit(5.0, "read_stall", node=1, dur=3.0)
        assert len(a) == 2 and len(b) == 2
        assert a.records[1].dur == 3.0

    def test_none_sinks_are_dropped(self):
        tracer = Tracer()
        fanout = FanoutTracer([None, tracer, None])
        fanout.emit(1.0, "x")
        assert len(fanout) == 1

    def test_enabled_iff_any_sink_enabled(self):
        assert FanoutTracer([Tracer()]).enabled
        assert not FanoutTracer([NullTracer()]).enabled
        assert not FanoutTracer([]).enabled
        assert FanoutTracer([NullTracer(), Tracer()]).enabled

    def test_empty_tracer_is_not_mistaken_for_disabled(self):
        """An empty Tracer is len() == 0 (falsy); components must test
        ``is not None``, not truthiness, or tracing silently drops."""
        from repro.core.engine import ProtocolNode  # noqa: F401 - import guard
        from repro.net.network import Network, NetworkConfig

        tracer = Tracer()
        assert not tracer  # the trap: empty tracer is falsy
        network = Network(Simulator(), NetworkConfig(), tracer=tracer)
        assert network.tracer is tracer


class TestKernelProfile:
    def _run_tiny_sim(self, profile):
        sim = Simulator()
        profile.attach(sim)

        def worker():
            for _ in range(5):
                yield sim.timeout(10.0)

        for _ in range(3):
            sim.process(worker())
        sim.run(until=100.0)
        profile.stop(sim.now)
        return sim

    def test_counts_events_and_processes(self):
        profile = KernelProfile()
        self._run_tiny_sim(profile)
        assert profile.processes_spawned == 3
        # Instants 0, 10, ..., 50; 3 starts + 3 workers x 5 timeouts.
        assert profile.events_processed == 6
        assert profile.events_processed + profile.calls_coalesced == 18
        assert profile.heap_peak >= 1
        assert profile.wall_seconds > 0.0
        assert profile.sim_ns == 100.0

    def test_stop_is_idempotent(self):
        profile = KernelProfile()
        self._run_tiny_sim(profile)
        frozen = profile.wall_seconds
        profile.stop(100.0)
        assert profile.wall_seconds == frozen

    def test_derived_rates_and_snapshot(self):
        profile = KernelProfile()
        self._run_tiny_sim(profile)
        assert profile.events_per_wall_second > 0.0
        assert profile.wall_seconds_per_sim_second > 0.0
        snapshot = profile.snapshot()
        assert snapshot["events_processed"] == profile.events_processed
        assert snapshot["heap_peak"] == profile.heap_peak
        assert format_kernel(snapshot).startswith("kernel: ")

    def test_per_message_ratios(self):
        profile = KernelProfile()
        self._run_tiny_sim(profile)
        scheduling = profile.snapshot()["scheduling"]
        # No protocol message handled: the ratios are 0, not a crash.
        assert scheduling["events_per_message"] == 0.0
        assert scheduling["processes_per_message"] == 0.0
        profile.by_msg_type["INV"] = [4, 0.0, 0]
        profile.by_msg_type["ACK"] = [2, 0.0, 0]
        scheduling = profile.snapshot()["scheduling"]
        assert scheduling["messages_handled"] == 6
        assert scheduling["events_per_message"] == \
            profile.events_processed / 6
        assert scheduling["processes_per_message"] == 3 / 6

    def test_detached_simulator_profiles_nothing(self):
        sim = Simulator()
        assert sim.instrument is None

        def worker():
            yield sim.timeout(1.0)

        sim.process(worker())
        sim.run(until=10.0)  # must not raise, no profile attached

    def test_second_instrument_is_rejected(self):
        """One slot: a second attach must fail loudly, not shadow the
        first (a profile shadowed by a sanitizer used to report zero
        events without a word)."""
        from repro.devtools.sanitizer import TieBatchSanitizer
        from repro.sim.engine import SimulationError

        sim = Simulator()
        profile = KernelProfile().attach(sim)
        with pytest.raises(SimulationError,
                           match="TieBatchSanitizer.*KernelProfile"):
            TieBatchSanitizer().attach(sim)
        assert sim.instrument is profile

    def test_stepping_counts_what_running_counts(self):
        """``step()`` x N and ``run()`` go through the same loop: the
        same entries land in the same buckets and tie batches, each
        step being a pop of one entry."""
        ran = KernelProfile()
        self._run_tiny_sim(ran)
        stepped = KernelProfile()
        sim = Simulator()
        stepped.attach(sim)

        def worker():
            for _ in range(5):
                yield sim.timeout(10.0)

        for _ in range(3):
            sim.process(worker())
        steps = 0
        while sim.queue_depth:
            sim.step()
            steps += 1
        stepped.stop(sim.now)
        assert stepped.events_processed == steps == \
            ran.events_processed + ran.calls_coalesced
        assert stepped.calls_coalesced == 0
        assert stepped.tie_batch_hist == ran.tie_batch_hist == {3: 6}
        assert sum(stepped.heap_depth_hist.values()) == steps
        assert stepped.resume_segments == ran.resume_segments
        assert {kind: stats[0] for kind, stats
                in stepped.by_event_kind.items()} == \
            {kind: stats[0] for kind, stats in ran.by_event_kind.items()}

    def test_snapshot_mid_run_reports_live_wall_clock(self):
        """Before stop(), wall_seconds has accumulated nothing — a live
        snapshot (the HealthMonitor's view) must fold in the in-flight
        interval instead of reporting 0 events/sec forever."""
        profile = KernelProfile()
        profile.start()
        while profile.wall_elapsed_seconds == 0.0:
            pass  # perf_counter ticks fast; one lap is enough
        profile.events_processed = 1000
        assert profile.wall_seconds == 0.0  # the bug this guards against
        snapshot = profile.snapshot()
        assert snapshot["wall_seconds"] > 0.0
        assert snapshot["events_per_wall_second"] > 0.0
        assert profile.events_per_wall_second > 0.0

    def test_stop_freezes_the_live_clock(self):
        profile = KernelProfile()
        self._run_tiny_sim(profile)
        frozen = profile.wall_elapsed_seconds
        assert frozen == profile.wall_seconds  # stopped: no drift
        assert profile.snapshot()["wall_seconds"] == frozen

    def test_loop_wall_and_attribution_sections(self):
        profile = KernelProfile()
        self._run_tiny_sim(profile)
        snapshot = profile.snapshot()
        assert 0.0 < snapshot["loop_wall_seconds"] <= \
            profile.wall_elapsed_seconds
        kinds = snapshot["attribution"]["by_event_kind"]
        assert kinds["timeout"]["count"] == 15  # 3 workers x 5 timeouts
        assert kinds["process_start"]["count"] == 3
        assert sum(k["count"] for k in kinds.values()) == \
            snapshot["events_processed"] + snapshot["calls_coalesced"]
        # No protocol engine in a tiny sim: no handler rows.
        assert snapshot["attribution"]["by_msg_type"] == {}
        assert snapshot["attribution"]["attributed_fraction"] == \
            pytest.approx(1.0, abs=0.05)

    def test_drive_handler_is_transparent(self):
        """The per-MsgType driver forwards yields, sends, and return
        values unchanged while accumulating per-label stats — time and
        resumes only: the ``call_handler`` segment that returned the
        generator is what counted the message."""
        sim = Simulator()
        profile = KernelProfile()
        profile.attach(sim)
        seen = []

        def handler():
            value = yield sim.timeout(2.0, "tick")
            seen.append(value)
            yield sim.timeout(3.0)

        def wrapper():
            yield from profile.drive_handler("INV", handler())

        sim.process(wrapper())
        sim.run()
        profile.stop(sim.now)

        assert seen == ["tick"]
        assert sim.now == 5.0
        assert profile.by_msg_type["INV"][0] == 0  # no message of its own
        assert profile.by_msg_type["INV"][2] == 2  # two resume segments
        assert profile.by_msg_type["INV"][1] > 0.0  # some wall accrued

    def test_drive_handler_propagates_exceptions(self):
        sim = Simulator()
        profile = KernelProfile()
        profile.attach(sim)

        def handler():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def wrapper():
            with pytest.raises(ValueError, match="boom"):
                yield from profile.drive_handler("ACK", handler())

        sim.process(wrapper())
        sim.run()
        assert profile.by_msg_type["ACK"][1] > 0.0  # timed up to the raise

    def test_call_handler_times_a_plain_call_under_its_label(self):
        """The non-waiting counterpart of ``drive_handler``: one message,
        some wall time, no resume segments — also when it raises."""
        profile = KernelProfile()
        seen = []
        profile.call_handler("ACK", seen.append, "m1")

        def failing(message):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            profile.call_handler("ACK", failing, "m2")
        assert seen == ["m1"]
        count, wall, segments = profile.by_msg_type["ACK"]
        assert (count, segments) == (2, 0) and wall > 0.0

    def test_resumed_segments_add_time_and_resumes_but_no_message(self):
        """A handler that parks between callbacks reports like the one
        generator it replaced: counted by its first segment only, one
        resume per later segment, every segment's wall — and whatever a
        segment returns comes back to the engine."""
        sim = Simulator()
        profile = KernelProfile().attach(sim)
        assert profile.call_handler("INV", lambda m, t: "parked", "m", 0.0) \
            == "parked"
        first_wall = profile.by_msg_type["INV"][1]
        profile.call_handler("INV", lambda m, t, extra: None, "m", 0.0, "x",
                             resumed=True)
        count, wall, segments = profile.by_msg_type["INV"]
        assert (count, segments) == (1, 1) and wall > first_wall

        def rest():
            yield sim.timeout(2.0)

        def wrapper():
            yield from profile.drive_handler("INV", rest())

        sim.process(wrapper())
        sim.run()
        count, _wall, segments = profile.by_msg_type["INV"]
        assert (count, segments) == (1, 2)
