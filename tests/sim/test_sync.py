"""Unit tests for simulation synchronization primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Interrupt, Simulator
from repro.sim.sync import AdmissionPool, Condition, Resource, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, 0)

    def test_immediate_grant_under_capacity(self, sim):
        resource = Resource(sim, 2)
        log = []

        def user(name):
            yield resource.acquire()
            log.append((sim.now, name, "in"))
            yield sim.timeout(10)
            resource.release()

        sim.process(user("a"))
        sim.process(user("b"))
        sim.run()
        assert [(t, n) for t, n, _ in log] == [(0.0, "a"), (0.0, "b")]

    def test_fifo_queueing(self, sim):
        resource = Resource(sim, 1)
        order = []

        def user(name, hold):
            yield resource.acquire()
            order.append(name)
            yield sim.timeout(hold)
            resource.release()

        sim.process(user("first", 5))
        sim.process(user("second", 5))
        sim.process(user("third", 5))
        sim.run()
        assert order == ["first", "second", "third"]
        assert sim.now == 15.0

    def test_release_idle_rejected(self, sim):
        resource = Resource(sim, 1)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_free_unit_is_granted_in_place(self, sim):
        resource = Resource(sim, 1)
        grant = resource.acquire()
        assert grant.processed and grant.value is resource
        assert (resource.in_use, sim.queue_depth) == (1, 0)
        # Contended: the grant is an event that fires on release.
        queued = resource.acquire()
        assert not queued.triggered and resource.queue_len == 1

    def test_in_place_grant_never_overtakes_a_queued_waiter(self, sim):
        """A unit handed to a waiter is in transit until the waiter's
        grant pops; an acquirer arriving in that same instant queues."""
        resource = Resource(sim, 1)
        order = []

        def user(name, arrival, hold):
            yield sim.timeout(arrival)
            yield resource.acquire()
            order.append((sim.now, name))
            yield sim.timeout(hold)
            resource.release()

        def latecomer():
            # Scheduled before the holder's timeout, so at t=10 it runs
            # after the release (same instant) but before "waiter"'s grant.
            yield sim.timeout(4)
            yield sim.timeout(6)
            assert (resource.in_use, resource.queue_len) == (1, 0)
            grant = resource.acquire()
            assert not grant.triggered
            yield grant
            order.append((sim.now, "latecomer"))
            resource.release()

        sim.process(user("holder", 0, 10))
        sim.process(user("waiter", 1, 5))
        sim.process(latecomer())
        sim.run()
        assert order == [(0.0, "holder"), (10.0, "waiter"),
                         (15.0, "latecomer")]

    def test_yield_resource_queues_the_wake_fifo_with_events(self, sim):
        """``yield resource`` waits in the same FIFO as ``acquire()``
        events, and its grant pops where the event's would."""
        resource = Resource(sim, 1)
        order = []

        def parked(name):
            yield resource
            order.append((sim.now, name))
            yield 5
            resource.release()

        def evented(name):
            yield resource.acquire()
            order.append((sim.now, name))
            yield sim.timeout(5)
            resource.release()

        for index in range(4):
            sim.process((parked if index % 2 else evented)(f"u{index}"))
        sim.run()
        assert order == [(0.0, "u0"), (5.0, "u1"), (10.0, "u2"),
                         (15.0, "u3")]
        assert resource.total_acquires == 4 and resource.in_use == 0

    def test_interrupted_queued_waiter_is_skipped(self, sim):
        """A waiter interrupted in the FIFO is dead: the release hands
        the unit to the next live one, and the dead one, asleep by then,
        is not resumed early by a grant."""
        resource = Resource(sim, 1)
        log = []

        def holder():
            yield resource
            yield 10
            resource.release()

        def dead():
            try:
                yield resource
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield 20
            log.append(("dead woke", sim.now))

        def live():
            yield resource
            log.append(("live granted", sim.now))
            resource.release()

        sim.process(holder())
        victim = sim.process(dead())
        sim.process(live())
        sim.call_at(3.0, victim.interrupt)
        sim.run()
        assert log == [("interrupted", 3.0), ("live granted", 10.0),
                       ("dead woke", 23.0)]
        assert (resource.in_use, resource.queue_len) == (0, 0)

    def test_a_closed_holder_hands_its_unit_to_nobody(self, sim):
        """A holder whose generator is closed outside the run loop (what
        the collector does to a dropped cluster) returns its unit and
        wakes nobody: both kinds of waiter stay queued, nothing is
        pushed, and the close raises nothing."""
        resource = Resource(sim, 1)

        def holder():
            yield resource
            try:
                yield 100
            finally:
                resource.release()

        def parked():
            yield resource

        held = sim.process(holder())
        sim.process(parked())
        sim.run(until=5.0)
        granted = resource.acquire()
        assert (resource.in_use, resource.queue_len) == (1, 2)
        held.generator.close()
        assert (resource.in_use, resource.queue_len) == (0, 2)
        assert not granted.triggered and sim.peek() == 100.0

    def test_an_interrupted_holder_hands_its_unit_to_the_oldest_live_waiter(
            self, sim):
        """A crash interrupts a holder mid-hold: its ``finally`` runs with
        the ``Interrupt`` in flight and hands the unit on, past a waiter
        interrupted in the FIFO before it."""
        resource = Resource(sim, 1)
        log = []

        def holder():
            yield resource
            try:
                try:
                    yield 100
                finally:
                    resource.release()
            except Interrupt:
                log.append(("holder interrupted", sim.now))

        def waiter(name):
            try:
                yield resource
            except Interrupt:
                log.append((f"{name} interrupted", sim.now))
                return
            log.append((f"{name} granted", sim.now))
            resource.release()

        held = sim.process(holder())
        dead = sim.process(waiter("dead"))
        sim.process(waiter("live"))
        sim.call_at(2.0, dead.interrupt)
        sim.call_at(3.0, held.interrupt)
        sim.run()
        assert log == [("dead interrupted", 2.0), ("holder interrupted", 3.0),
                       ("live granted", 3.0)]
        assert (resource.in_use, resource.queue_len) == (0, 0)

    def test_use_helper(self, sim):
        resource = Resource(sim, 1)

        def user():
            yield from resource.use(7)

        sim.process(user())
        sim.process(user())
        sim.run()
        assert sim.now == 14.0
        assert resource.in_use == 0

    def test_telemetry(self, sim):
        resource = Resource(sim, 1)

        def user():
            yield from resource.use(1)

        for _ in range(3):
            sim.process(user())
        sim.run()
        assert resource.total_acquires == 3
        assert resource.peak_queue_len == 2


class TestAdmissionPool:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            AdmissionPool(sim, 0)

    def test_free_server_starts_now_busy_pool_queues_fifo(self, sim):
        pool = AdmissionPool(sim, 2)
        assert pool.admit(10.0) == 0.0
        assert pool.admit(4.0) == 0.0
        assert (pool.in_use, pool.queue_len) == (2, 0)
        # Both busy: the third waits for the server that frees first
        # (t=4), the fourth for the next (t=4+3=7, not t=10).
        assert pool.admit(3.0) == 4.0
        assert pool.admit(1.0) == 7.0
        assert (pool.in_use, pool.queue_len) == (2, 2)
        assert pool.total_acquires == 4
        assert pool.peak_queue_len == 2
        sim.run(until=5.0)
        assert (pool.in_use, pool.queue_len) == (2, 1)
        sim.run(until=20.0)
        assert (pool.in_use, pool.queue_len) == (0, 0)
        assert pool.admit(2.0) == 20.0
        assert pool.peak_queue_len == 2

    @given(capacity=st.integers(min_value=1, max_value=4),
           jobs=st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                                   st.integers(min_value=1, max_value=20)),
                         min_size=1, max_size=40),
           constant_hold=st.one_of(st.none(),
                                   st.integers(min_value=1, max_value=20)))
    @settings(max_examples=200, deadline=None)
    def test_matches_processes_contending_for_a_resource(self, capacity, jobs,
                                                         constant_hold):
        """Same start times, float for float, and the same telemetry as
        one process per arrival doing ``Resource.use(hold)`` — whether
        an uncontended grant is made in place (``Resource``) or through
        the heap (the reference below).  Arrival ``k`` carries the
        fraction ``k/1024`` so that no arrival ties with another or with
        a release: a tie's admission order would be the kernel's pop
        order, which the closed form has no part in."""

        class HeapGrantResource(Resource):
            """Reference: every grant is a heap entry, as before in-place
            grants existed."""

            def acquire(self):
                event = super().acquire()
                if event.processed:
                    event = self.sim.event().succeed(self)
                return event

        sim = Simulator()
        resource = Resource(sim, capacity)
        reference = HeapGrantResource(sim, capacity)
        pool = AdmissionPool(sim, capacity)
        contended, event_based, closed_form = {}, {}, {}
        admission_order = []

        def contender(index, arrival, hold):
            yield sim.timeout(arrival)
            free = resource.in_use < capacity and resource.queue_len == 0
            grant = resource.acquire()
            assert grant.processed == free
            yield grant
            contended[index] = sim.now
            admission_order.append(index)
            yield sim.timeout(hold)
            resource.release()

        def reference_contender(index, arrival, hold):
            yield sim.timeout(arrival)
            yield reference.acquire()
            event_based[index] = sim.now
            yield sim.timeout(hold)
            reference.release()

        def admitted(index, arrival, hold):
            yield sim.timeout(arrival)
            closed_form[index] = pool.admit(hold)

        arrivals = {}
        for index, (arrival, hold) in enumerate(jobs):
            arrivals[index] = arrival = float(arrival) + index / 1024.0
            hold = float(constant_hold or hold)
            sim.process(contender(index, arrival, hold))
            sim.process(reference_contender(index, arrival, hold))
            sim.process(admitted(index, arrival, hold))
        sim.run()

        assert closed_form == contended == event_based
        # FIFO: nobody is admitted ahead of an earlier arrival.
        assert admission_order == sorted(arrivals, key=arrivals.get)
        assert (pool.total_acquires == resource.total_acquires
                == reference.total_acquires == len(jobs))
        assert (pool.peak_queue_len == resource.peak_queue_len
                == reference.peak_queue_len)
        assert (pool.in_use, pool.queue_len) == (0, 0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        results = []

        def getter():
            item = yield store.get()
            results.append(item)

        store.put("x")
        sim.process(getter())
        sim.run()
        assert results == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def getter():
            item = yield store.get()
            results.append((sim.now, item))

        def putter():
            yield sim.timeout(5)
            store.put("late")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert results == [(5.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        results = []

        def getter():
            while True:
                item = yield store.get()
                results.append(item)
                if item == 3:
                    return

        for i in (1, 2, 3):
            store.put(i)
        sim.process(getter())
        sim.run()
        assert results == [1, 2, 3]

    def test_len_and_peak(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.peak_len == 2


class TestCondition:
    def test_immediate_when_true(self, sim):
        condition = Condition(sim)
        state = {"ready": True}
        done = []

        def waiter():
            yield condition.wait_for(lambda: state["ready"])
            done.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert done == [0.0]

    def test_wakes_on_notify(self, sim):
        condition = Condition(sim)
        state = {"value": 0}
        done = []

        def waiter():
            yield condition.wait_for(lambda: state["value"] >= 2)
            done.append(sim.now)

        def mutator():
            for _ in range(2):
                yield sim.timeout(3)
                state["value"] += 1
                condition.notify()

        sim.process(waiter())
        sim.process(mutator())
        sim.run()
        assert done == [6.0]

    def test_multiple_waiters_selective_wake(self, sim):
        condition = Condition(sim)
        state = {"value": 0}
        done = []

        def waiter(threshold):
            yield condition.wait_for(lambda: state["value"] >= threshold)
            done.append((sim.now, threshold))

        def mutator():
            for _ in range(3):
                yield sim.timeout(1)
                state["value"] += 1
                condition.notify()

        sim.process(waiter(1))
        sim.process(waiter(3))
        sim.process(mutator())
        sim.run()
        assert done == [(1.0, 1), (3.0, 3)]

    def test_waiter_count(self, sim):
        condition = Condition(sim)

        def waiter():
            yield condition.wait_for(lambda: False)

        sim.process(waiter())
        sim.run(until=1)
        assert condition.waiter_count == 1
