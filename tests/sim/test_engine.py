"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import (
    AllOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    entry_kind,
)


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_settle_without_waiters_is_in_place(self, sim):
        event = sim.event()
        event.settle("v")
        assert event.processed and event.ok and event.value == "v"
        assert sim.queue_depth == 0
        with pytest.raises(SimulationError):
            event.settle("again")

    def test_settle_with_a_waiter_goes_through_the_heap(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.settle("v")
        assert sim.queue_depth == 1 and not seen
        sim.run()
        assert seen == ["v"]

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok


class TestTimeout:
    def test_advances_clock(self, sim):
        sim.timeout(10.0)
        sim.run()
        assert sim.now == 10.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)
        # ... before anything was pushed or an instant opened.
        assert sim.queue_depth == 0
        assert sim._times == [] and sim._queue == {}

    def test_nan_delay_rejected(self, sim):
        """NaN compares false both ways: it must not slip past the
        guard and take the clock backwards."""
        with pytest.raises(ValueError):
            sim.timeout(float("nan"))
        assert sim.queue_depth == 0 and sim._times == []

    def test_same_instant_timeouts_and_callbacks_pop_in_creation_order(
            self, sim):
        """A timeout pushes itself: it must still take its place in the
        instant's list where ``call_at`` takes them, one per creation."""
        order = []
        sim.timeout(0.0).callbacks.append(lambda _e: order.append("t0"))
        sim.call_at(sim.now, order.append, "c1")
        sim.timeout(0.0).callbacks.append(lambda _e: order.append("t2"))
        sim.call_at(0.0, order.append, "c3")
        sim.run()
        assert order == ["t0", "c1", "t2", "c3"]
        assert sim.now == 0.0

    def test_timeout_is_born_scheduled(self, sim):
        timeout = sim.timeout(1.0)
        assert timeout.triggered and not timeout.processed
        with pytest.raises(SimulationError):
            sim._schedule(timeout, 2.0)

    def test_timeout_value(self, sim):
        results = []

        def proc():
            value = yield sim.timeout(5, value="hello")
            results.append(value)

        sim.process(proc())
        sim.run()
        assert results == ["hello"]


class TestSleep:
    """``yield d`` sleeps ``d`` ns on the process's one prebuilt wake,
    pushed where ``yield sim.timeout(d)`` would have pushed its event."""

    def test_sleeps_and_resumes_with_no_value(self, sim):
        seen = []

        def sleeper():
            seen.append((yield 5))
            seen.append((yield 0))
            seen.append(sim.now)

        sim.process(sleeper())
        sim.run()
        assert seen == [None, None, 5.0]

    def test_wake_takes_the_place_a_timeout_would_have(self, sim):
        order = []

        def waiter(name, sleep):
            yield 1.0 if sleep else sim.timeout(1.0)
            order.append(name)

        for index in range(4):
            sim.process(waiter(f"p{index}", sleep=index % 2 == 0))
        sim.call_at(1.0, order.append, "call")
        sim.run()
        assert order == ["call", "p0", "p1", "p2", "p3"]

    def test_one_wake_per_process_built_at_the_first_sleep(self, sim):
        wakes = []

        def sleeper():
            for _ in range(3):
                yield 1
                wakes.append(proc._wake)

        proc = sim.process(sleeper())
        assert proc._wake is None
        sim.run()
        assert len(wakes) == 3 and wakes[0] is wakes[1] is wakes[2]
        assert proc._wake is None  # dropped at the end: no cycle left

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_negative_or_nan_sleep_fails_as_timeout_raises(self, sim, delay):
        caught = []

        def catcher():
            try:
                yield delay
            except ValueError:
                caught.append(sim.now)
            yield 1

        def unguarded():
            yield delay

        sim.process(catcher())
        proc = sim.process(unguarded())
        with pytest.raises(ValueError):
            sim.run()
        assert proc.triggered and not proc.ok
        sim.run()
        assert caught == [0.0] and sim.now == 1.0

    @pytest.mark.parametrize("again", [50.0, 3.0, 0.0])
    def test_stale_wake_never_resumes_an_interrupted_sleeper(self, sim,
                                                             again):
        """Interrupted at 5 in a sleep to 100, the sleeper sleeps again
        — longer, shorter, or not at all — and wakes only at its new
        time; the stale wake at 100 pops and resumes nothing."""
        log = []

        def sleeper():
            try:
                yield 100.0
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield again
            log.append(("woke", sim.now))
            yield 200.0
            log.append(("woke", sim.now))

        proc = sim.process(sleeper())
        sim.call_at(5.0, proc.interrupt)
        sim.run()
        assert log == [("interrupted", 5.0), ("woke", 5.0 + again),
                       ("woke", 205.0 + again)]
        assert sim.now == 205.0 + again


class TestProcess:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(3)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.ok and p.value == "done"
        assert sim.now == 3.0

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(2)
            yield sim.timeout(3)

        sim.process(proc())
        sim.run()
        assert sim.now == 5.0

    def test_processes_interleave(self, sim):
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append((sim.now, name))

        sim.process(worker("b", 2))
        sim.process(worker("a", 1))
        sim.run()
        assert log == [(1.0, "a"), (2.0, "b")]

    def test_wait_on_another_process(self, sim):
        def child():
            yield sim.timeout(7)
            return 99

        def parent():
            value = yield sim.process(child())
            return value + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 100

    def test_unhandled_failure_surfaces(self, sim):
        def bad():
            yield sim.timeout(1)
            raise RuntimeError("boom")

        sim.process(bad())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_failure_consumed_by_waiter(self, sim):
        caught = []

        def bad():
            yield sim.timeout(1)
            raise ValueError("inner")

        def parent():
            try:
                yield sim.process(bad())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["inner"]

    def test_yield_non_event_fails_process(self, sim):
        # A number is a sleep; a string is neither that, an event nor a
        # FIFO to wait in.
        def bad():
            yield "42"

        p = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()
        assert p.triggered and not p.ok

    def test_interrupt(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(5)
            p.interrupt("wake up")

        sim.process(interrupter())
        sim.run()
        assert log == [(5.0, "wake up")]

    def test_a_handled_interrupt_drops_its_traceback(self, sim):
        """Caught, an interrupt holds no traceback (which would keep the
        frames it passed through alive), whether the process then
        returns or waits again; an uncaught one fails the process with
        its traceback intact."""
        caught = []

        def catcher(then_wait):
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                caught.append(interrupt)
            if then_wait:
                yield sim.timeout(1)

        def bystander():
            yield sim.timeout(100)

        returning = sim.process(catcher(False))
        waiting = sim.process(catcher(True))
        sim.run(until=5)
        returning.interrupt("stop")
        waiting.interrupt("stop")
        sim.run(until=10)
        assert len(caught) == 2
        assert all(interrupt.__traceback__ is None for interrupt in caught)
        sim.process(bystander()).interrupt("stop")
        with pytest.raises(Interrupt) as failure:
            sim.run()
        frames, tb = [], failure.value.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert "bystander" in frames

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(1)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_unwaited_success_settles_without_a_heap_entry(self, sim):
        def proc():
            yield sim.timeout(3.0)
            return "done"

        process = sim.process(proc())
        sim.run(until=3.0)
        assert process.processed and process.value == "done"
        assert sim.queue_depth == 0

        def late_joiner():
            return (yield process)

        assert sim.run_until_complete(sim.process(late_joiner())) == "done"

    def test_waited_process_still_completes_through_the_heap(self, sim):
        def child():
            yield sim.timeout(3.0)
            return 7

        def parent():
            return (yield sim.process(child())) + 1

        assert sim.run_until_complete(sim.process(parent())) == 8

    def test_unwaited_failure_still_surfaces(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)


class TestInPlaceStart:
    """``sim.process(gen, inline=True)``: how a plain callback continues
    with a generator without spending a ``process_start`` hop."""

    def test_first_segment_runs_before_the_call_returns(self, sim):
        seen = []

        def proc():
            seen.append(("first", sim.now))
            yield sim.timeout(4.0)
            seen.append(("second", sim.now))

        process = sim.process(proc(), inline=True)
        assert seen == [("first", 0.0)]
        assert sim.queue_depth == 1           # the timeout it parked on,
        assert sim.peek() == 4.0              # and no start entry before it
        assert process.is_alive
        sim.run()
        assert seen == [("first", 0.0), ("second", 4.0)]
        assert process.processed

    def test_pushes_nothing_until_the_generator_parks(self, sim):
        depths = []

        def proc():
            depths.append(sim.queue_depth)
            yield sim.event().succeed()       # a push of the generator's own
            depths.append(sim.queue_depth)

        sim.process(proc(), inline=True)
        assert depths == [0]
        assert sim.queue_depth == 1

    def test_generator_that_never_yields_costs_no_heap_entry(self, sim):
        def proc():
            return "done"
            yield

        process = sim.process(proc(), inline=True)
        assert process.processed and process.value == "done"
        assert sim.queue_depth == 0

    def test_return_value_reaches_a_waiter(self, sim):
        def child():
            yield sim.timeout(3.0)
            return 7

        def parent():
            return (yield sim.process(child(), inline=True)) + 1

        assert sim.run_until_complete(sim.process(parent())) == 8
        assert sim.now == 3.0

    def test_failure_in_the_first_segment_surfaces_from_the_loop(self, sim):
        def proc():
            raise RuntimeError("boom")
            yield

        process = sim.process(proc(), inline=True)   # does not raise here
        assert process.triggered and not process.ok
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_failure_after_parking_surfaces_from_the_loop(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.process(proc(), inline=True)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_interrupt_after_parking(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        process = sim.process(sleeper(), inline=True)
        sim.call_at(5.0, process.interrupt, "wake up")
        sim.run()
        assert log == [(5.0, "wake up")]

    def test_started_inside_another_process_restores_active_process(self, sim):
        active = []

        def inner():
            active.append(("inner", sim.active_process))
            yield sim.timeout(1.0)
            active.append(("inner again", sim.active_process))

        def outer():
            started = sim.process(inner(), name="inner", inline=True)
            active.append(("outer", sim.active_process))
            yield sim.timeout(2.0)
            return started

        outer_process = sim.process(outer(), name="outer")
        inner_process = sim.run_until_complete(outer_process)
        assert active == [("inner", inner_process), ("outer", outer_process),
                          ("inner again", inner_process)]
        assert sim.active_process is None

    def test_started_from_a_callback_leaves_no_active_process(self, sim):
        def proc():
            yield sim.timeout(1.0)

        sim.call_at(2.0, lambda: sim.process(proc(), inline=True))
        sim.step()
        assert sim.active_process is None
        assert sim.queue_depth == 1 and sim.peek() == 3.0

    def test_counts_as_a_spawned_process(self, sim):
        from repro.obs.profile import KernelProfile

        profile = KernelProfile().attach(sim)

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc(), inline=True)
        sim.run()
        assert profile.processes_spawned == 1
        assert profile.by_event_kind.keys() == {"timeout"}   # no process_start


class TestCombinators:
    def test_all_of_waits_for_all(self, sim):
        def proc():
            events = [sim.timeout(3, value="x"), sim.timeout(1, value="y")]
            values = yield sim.all_of(events)
            return values

        p = sim.process(proc())
        sim.run()
        assert p.value == ["x", "y"]
        assert sim.now == 3.0

    def test_all_of_empty(self, sim):
        def proc():
            yield sim.all_of([])
            return "ok"

        p = sim.process(proc())
        sim.run()
        assert p.value == "ok"

    def test_all_of_propagates_failure(self, sim):
        def bad():
            yield sim.timeout(1)
            raise RuntimeError("child failed")

        def parent():
            yield sim.all_of([sim.process(bad()), sim.timeout(10)])

        sim.process(parent())
        with pytest.raises(RuntimeError, match="child failed"):
            sim.run()


class TestSimulator:
    def test_run_until(self, sim):
        def ticker():
            while True:
                yield sim.timeout(1)

        sim.process(ticker())
        sim.run(until=10.5)
        assert sim.now == 10.5

    def test_run_until_past_rejected(self, sim):
        sim.timeout(5)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_deterministic_tie_break(self):
        """Same-time events fire in scheduling order, reproducibly."""
        def build_log():
            sim = Simulator()
            log = []

            def emitter(tag):
                yield sim.timeout(5)
                log.append(tag)

            for tag in ["a", "b", "c", "d"]:
                sim.process(emitter(tag))
            sim.run()
            return log

        assert build_log() == build_log() == ["a", "b", "c", "d"]

    def test_call_at(self, sim):
        fired = []
        sim.call_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_call_at_passes_arguments_and_is_labelled_by_its_function(
            self, sim):
        fired = []

        def landing(*args):
            fired.append((sim.now, args))

        assert sim.call_at(7.0, landing, "a", 2) is None
        assert sim._queue == {7.0: [(landing, ("a", 2))]}
        [entry] = sim._queue[7.0]
        assert entry_kind(entry) == "call_at"
        landing.event_kind = "msg_delivery"    # what Network._land carries
        assert entry_kind(entry) == "msg_delivery"
        sim.run()
        assert fired == [(7.0, ("a", 2))]

    def test_call_at_pops_at_exactly_the_timestamp_given(self, sim):
        # 0.1 + 0.2 != 0.3: the entry must pop at the float the caller
        # computed, the one a timeout(0.2) created at 0.1 would pop at.
        sim.timeout(0.1)
        sim.run()
        when = sim.now + 0.2
        sim.call_at(when, lambda: None)
        timeout = sim.timeout(0.2)
        sim.run()
        assert sim.now == when and timeout.processed

    def test_call_at_now_runs_after_pending_same_time_events(self, sim):
        order = []
        sim.timeout(0.0).callbacks.append(lambda _ev: order.append("timeout"))
        sim.call_at(sim.now, order.append, "soon")
        sim.run()
        assert order == ["timeout", "soon"]

    def test_call_at_past_rejected(self, sim):
        sim.timeout(5)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_nan_times_rejected(self, sim):
        """With entries at 5, 1 and 3, a NaN one used to pop between
        them and run the clock backwards; every NaN time is refused."""
        for when in (5.0, 1.0, 3.0):
            sim.call_at(when, lambda: None)
        with pytest.raises(ValueError):
            sim.call_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.run(until=float("nan"))
        seen = []
        sim.call_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert sim.queue_depth == 0 and sim.now == 5.0 and seen == [2.0]

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4)
        assert sim.peek() == 4.0

    def test_peek_is_now_while_the_running_instant_has_entries(self, sim):
        peeks = []
        sim.call_at(1.0, lambda: peeks.append(sim.peek()))
        sim.call_at(1.0, lambda: peeks.append(sim.peek()))
        sim.timeout(3.0)
        sim.run()
        assert peeks == [1.0, 3.0]

    def test_run_until_complete(self, sim):
        def proc():
            yield sim.timeout(2)
            return 5

        assert sim.run_until_complete(sim.process(proc())) == 5

    def test_run_until_complete_deadlock_detected(self, sim):
        def stuck():
            yield sim.event()  # nobody will ever trigger this

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(sim.process(stuck()))

    def test_run_until_complete_accepts_any_event(self, sim):
        def proc(delay):
            yield sim.timeout(delay)
            return delay

        gate = sim.all_of([sim.process(proc(2)), sim.process(proc(7))])
        sim.timeout(50)
        assert sim.run_until_complete(gate) == [2, 7]
        # The loop stops once the gate has triggered: its own completion
        # entry and the later timeout are still queued.
        assert sim.now == 7.0 and sim.queue_depth == 2

    def test_step_on_empty_queue_is_a_simulation_error(self, sim):
        with pytest.raises(SimulationError, match="empty event queue"):
            sim.step()
