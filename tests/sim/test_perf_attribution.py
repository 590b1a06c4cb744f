"""Attribution counters for kernel paths the profiler newly exposes.

Micro-simulations with hand-traceable schedules pin *exact* counter
values: event-kind buckets, composite (`AllOf`) and defused
events, same-timestamp tie-batches, interrupt-driven resumes, and the
trampoline fast path.  A kernel refactor that changes any of these
numbers changes scheduling — these tests make that visible before the
byte-identity suites fail mysteriously.

Re-pinned for the callback-message kernel: a process that finishes with
nobody waiting on it settles in place, so its ``process_end`` pop is
gone (every micro-simulation below lost exactly one pop per such
process — the old tallies are quoted beside the new).  At cluster
level, getting one protocol message from ``send`` to its handler's
first line cost 11 pops before — 2 ``process_start`` + 2
``process_end`` (transfer and handler processes), 3 ``event``
(queue-pair grant, ``delivered``, worker grant), 3 ``timeout``
(serialization, propagation, CPU) and 1 ``msg_delivery`` (the inbox
hand-off to the dispatcher) — and costs 2 now: 1 ``msg_delivery`` (the
landing ``call_at`` entry) + 1 ``call_at`` (the handler, entered at its
CPU-done time).

Re-pinned again for the per-instant queue: a pop is an instant, so
``events_processed`` and the heap-depth histogram count instants, while
the kind buckets, the tie batches and the defused ratio count entries
(pops + ``calls_coalesced``).
"""

import pytest

from repro.obs import KernelProfile
from repro.sim.engine import Interrupt, Simulator


def _attached():
    sim = Simulator()
    profile = KernelProfile()
    profile.attach(sim)
    return sim, profile


def _kind_counts(profile):
    return {kind: stats[0] for kind, stats in profile.by_event_kind.items()}


class TestEventKindAttribution:
    def test_all_of_composite_pinned_counts(self):
        """3 same-delay timeouts under an AllOf: 5 entries in 2 pops —
        process_start, then 3 timeouts and the composite (was 6 entries:
        the unwaited process_end is settled in place) — the 4 at t=5
        forming one tie-batch (was 5)."""
        sim, profile = _attached()

        def waiter():
            yield sim.all_of([sim.timeout(5.0) for _ in range(3)])

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        assert (profile.events_processed, profile.calls_coalesced) == (2, 3)
        assert _kind_counts(profile) == {
            "process_start": 1, "timeout": 3, "composite": 1,
        }
        assert profile.tie_batch_hist == {1: 1, 4: 1}
        assert profile.events_defused == 0
        # Wall attribution covers every entry exactly once.
        assert sum(s[0] for s in profile.by_event_kind.values()) == \
            profile.events_processed + profile.calls_coalesced

    def test_call_at_and_plain_events_are_bucketed(self):
        sim, profile = _attached()
        fired = []
        sim.call_at(3.0, lambda: fired.append(sim.now))
        event = sim.event()

        def trigger():
            yield sim.timeout(1.0)
            event.succeed("x")

        def waiter():
            value = yield event
            assert value == "x"

        sim.process(trigger())
        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        assert fired == [3.0]
        counts = _kind_counts(profile)
        assert counts["call_at"] == 1
        assert counts["event"] == 1  # the hand-made event
        assert counts["timeout"] == 1
        assert counts["process_start"] == 2
        # Neither process is waited on: both settle in place (was 2).
        assert "process_end" not in counts


class TestSchedulingStatistics:
    def test_same_timestamp_tie_batches_pinned(self):
        """4 timeouts at t=7 and 2 at t=9 from one process spawn: the
        start alone, the four at 7, then the two at 9 with the
        composite they trigger."""
        sim, profile = _attached()

        def waiter():
            yield sim.all_of([sim.timeout(7.0) for _ in range(4)]
                             + [sim.timeout(9.0) for _ in range(2)])

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        # Pops: start@0 | 4 timeouts@7 | 2 timeouts + composite @9 ->
        # batches 1, 4, 3 (was 1, 4, 4 with the unwaited process_end).
        assert profile.tie_batch_hist == {1: 1, 4: 1, 3: 1}
        assert profile.snapshot()["scheduling"]["max_tie_batch"] == 4

    def test_heap_depth_histogram_buckets_by_bit_length(self):
        """Depth (pending instants) is recorded before each pop in
        power-of-two buckets (bucket = depth.bit_length())."""
        sim, profile = _attached()

        def waiter():
            yield sim.all_of([sim.timeout(5.0) for _ in range(3)])

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        # Instants pending before the pops of t=0 and t=5: 1 and 1 (one
        # entry per pop, it was 1, 3, 2, 1, 1 -> buckets 1x3, 2x2).
        assert profile.heap_depth_hist == {1: 2}
        assert sum(profile.heap_depth_hist.values()) == \
            profile.events_processed

    def test_trampoline_hops_on_already_processed_target(self):
        """Yielding an event that already ran its callbacks resumes the
        generator inline (no extra pop): exactly one trampoline hop."""
        sim, profile = _attached()
        early = sim.timeout(1.0)

        def waiter():
            yield sim.timeout(5.0)  # by now `early` is long processed
            value = yield early  # trampoline: continue immediately
            assert value is None

        sim.process(waiter())
        sim.run()
        profile.stop(sim.now)

        assert profile.trampoline_hops == 1
        assert profile.resume_segments > 0
        # `early` popped with no waiters; the late yield adds no pop.
        assert _kind_counts(profile)["timeout"] == 2


class TestInterruptAttribution:
    def test_interrupt_cancels_callback_and_buckets_event(self):
        sim, profile = _attached()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                assert interrupt.cause == "wake"

        def interrupter(target):
            yield sim.timeout(2.0)
            target.interrupt("wake")

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        profile.stop(sim.now)

        counts = _kind_counts(profile)
        assert counts["interrupt"] == 1
        assert profile.callbacks_cancelled == 1
        # The abandoned 100ns timeout still pops (undefused, no waiters).
        assert counts["timeout"] == 2
        # The interrupt is the one entry that arrives defused (its
        # failure is thrown into the sleeper, not raised from the loop):
        # 1 of 5 entries (2 starts, 2 timeouts, the interrupt).
        assert profile.events_defused == 1
        assert profile.snapshot()["scheduling"]["defused_ratio"] == \
            pytest.approx(1 / 5)

    def test_uninterrupted_run_counts_no_cancellations(self):
        sim, profile = _attached()

        def worker():
            yield sim.timeout(1.0)

        sim.process(worker())
        sim.run()
        profile.stop(sim.now)
        assert profile.callbacks_cancelled == 0
        assert "interrupt" not in profile.by_event_kind


class TestClusterLevelInvariants:
    """Cross-checks on a real protocol run (fixed seed)."""

    @pytest.fixture(scope="class")
    def profiled_cluster(self):
        from repro.cluster.config import ClusterConfig
        from repro.core.model import Consistency, DdpModel, Persistency
        from tests import harness

        return harness.run(
            DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
            config=ClusterConfig(servers=3, clients_per_server=3),
            profile=KernelProfile()).cluster

    @pytest.fixture(scope="class")
    def profiled_run(self, profiled_cluster):
        return profiled_cluster.sim.instrument

    def test_every_pop_lands_in_exactly_one_kind_bucket(self, profiled_run):
        """Every entry a pop ran, that is."""
        assert sum(s[0] for s in profiled_run.by_event_kind.values()) == \
            profiled_run.events_processed + profiled_run.calls_coalesced

    def test_handlers_are_a_subset_of_deliveries(self, profiled_run,
                                                 profiled_cluster):
        """Every driven handler consumed one delivered message; messages
        delivered but not yet dispatched at cutoff stay unhandled.  (The
        NICs count deliveries; ``msg_delivery`` entries count landings.)"""
        deliveries = sum(node.nic.messages_received
                         for node in profiled_cluster.nodes)
        handled = profiled_run.messages_handled
        assert 0 < handled <= deliveries
        # The replicated-write protocol exercises several handler types.
        assert set(profiled_run.by_msg_type) == {"INV", "ACK", "VAL"}

    def test_attribution_covers_loop_wall_within_5_percent(self,
                                                           profiled_run):
        loop = profiled_run.loop_wall_seconds
        attributed = profiled_run.attributed_wall_seconds
        assert loop > 0
        assert abs(attributed - loop) <= 0.05 * loop

    def test_tie_batches_and_depth_histogram_cover_all_pops(self,
                                                            profiled_run):
        assert sum(size * count for size, count
                   in profiled_run.tie_batch_hist.items()) == \
            profiled_run.events_processed + profiled_run.calls_coalesced
        assert sum(profiled_run.heap_depth_hist.values()) == \
            profiled_run.events_processed
