"""One heap slot per instant: the kernel's per-instant queue.

The kernel keeps a heap of distinct pending timestamps and, per
timestamp, the list of its entries — events and bare ``(fn, args)``
calls — in push order; the loop pops an instant and runs its list to
the end, entries the instant appends to itself included.  The property
test drives the kernel and a reference model — a sorted list of
``(when, sequence, call)``, one entry per push — with the same random
programme and requires the same execution order, the same queued
``(when, position)`` pairs whenever the driver gets control back (a
process's sleep wake where its ``Timeout`` would have been), the
same ``queue_depth`` at every push and every call, through calls that
raise and instants cut by ``step`` / ``run_until_complete``; the unit
cases pin each edge where an instant's list has to behave like the
entries it holds.
"""

import bisect
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import KernelProfile
from repro.sim.engine import SimulationError, Simulator, entry_kind


class Boom(Exception):
    """What a ``raise`` call of a programme raises."""


def boom():
    raise Boom


# ---------------------------------------------------------------------------
# the reference model and the two faces of one kernel API
# ---------------------------------------------------------------------------

class ModelKernel:
    """What the kernel promises, with no storage trick: every push is
    its own ``(when, sequence, call)`` in one sorted list."""

    def __init__(self):
        self.now = 0.0
        self.next_sequence = 0
        self._queue = []
        self._stopped = None   # None: no stop event armed yet

    @property
    def queue_depth(self):
        return len(self._queue)

    def queued(self):
        """Every queued entry's ``(when, position among its instant's
        entries)``."""
        queued, last, position = [], None, 0
        for when, _sequence, _fn in self._queue:
            position = position + 1 if when == last else 0
            last = when
            queued.append((when, position))
        return queued

    def call_at(self, when, fn):
        # (when, sequence) is unique, so ``fn`` is never compared.
        bisect.insort(self._queue, (when, self.next_sequence, fn))
        self.next_sequence += 1

    def timeout(self, delay, fn):
        self.call_at(self.now + delay, fn)

    def process(self, waits, fn):
        """A process: one start entry, then one entry per ``(how,
        delay)`` wait — a timeout or a sleep, which queue alike — pushed
        when the previous one has fired and ``fn(step)`` ran."""
        steps = iter(enumerate(delay for _how, delay in waits))

        def advance(fired=None):
            if fired is not None:
                fn(fired)
            step = next(steps, None)
            if step is not None:
                self.call_at(self.now + step[1], partial(advance, step[0]))

        self.call_at(self.now, advance)

    def step(self):
        self.now, _sequence, fn = self._queue.pop(0)
        fn()

    def run(self, until=None):
        while self._queue and (until is None or self._queue[0][0] <= until):
            self.step()
        if until is not None:
            self.now = until

    def stop(self):
        """What a ``stop`` call does: succeed the armed stop event,
        which queues the event's own entry."""
        if self._stopped is False:
            self._stopped = True
            self.call_at(self.now, lambda: None)

    def run_until_stopped(self):
        """``run_until_complete`` on a fresh event: look *between
        calls* whether a ``stop`` call has succeeded it."""
        self._stopped = False
        while self._queue and not self._stopped:
            self.step()


class RealKernel:
    """The same API on :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()
        self._stop = None

    now = property(lambda self: self.sim.now)
    queue_depth = property(lambda self: self.sim.queue_depth)

    def queued(self):
        """``(when, position)`` read off the instant lists — between
        driving calls, when a list holds only what has not run — after
        checking that the heap holds every pending instant once."""
        sim = self.sim
        assert sorted(sim._times) == sorted(sim._queue)
        return sorted((when, position)
                      for when, entries in sim._queue.items()
                      for position in range(len(entries)))

    def call_at(self, when, fn):
        self.sim.call_at(when, fn)
        assert self.sim._queue[when][-1] == (fn, ())

    def timeout(self, delay, fn):
        self.sim.timeout(delay).callbacks.append(lambda _event: fn())

    def process(self, waits, fn):
        def body():
            for step, (how, delay) in enumerate(waits):
                yield delay if how == "sleep" else self.sim.timeout(delay)
                fn(step)
        self.sim.process(body())

    def step(self):
        self.sim.step()

    def run(self, until=None):
        self.sim.run(until)

    def stop(self):
        if self._stop is not None and not self._stop.triggered:
            self._stop.succeed()

    def run_until_stopped(self):
        self._stop = self.sim.event()
        try:
            self.sim.run_until_complete(self._stop)
        except SimulationError:
            pass  # drained with no stop call: the model's other exit


# ---------------------------------------------------------------------------
# programmes
# ---------------------------------------------------------------------------

#: Few distinct delays, zero among them: same-instant bursts, joins
#: across nesting levels and zero-delay pushes are the common case.
DELAYS = st.sampled_from([0.0, 1.0, 1.0, 2.0])
#: How a process waits: on a ``Timeout``, or asleep on its wake.
WAITS = st.sampled_from(["timeout", "sleep"])


def _actions(bodies):
    return st.lists(st.one_of(
        st.tuples(st.just("call"), DELAYS, bodies),
        st.tuples(st.just("call"), DELAYS, bodies),
        st.tuples(st.just("timeout"), DELAYS, bodies),
        st.tuples(st.just("process"),
                  st.lists(st.tuples(WAITS, DELAYS), max_size=3)),
        st.tuples(st.just("stop"), DELAYS),
        st.tuples(st.just("raise"), DELAYS),
    ), max_size=4)


#: What a callback does when it runs: a list of pushes, each carrying
#: the body of the callback it schedules.
BODIES = st.recursive(st.just([]), _actions, max_leaves=12)

#: What the driver does from outside the loop.
PROGRAMMES = st.lists(st.one_of(
    st.tuples(st.just("do"), BODIES),
    st.tuples(st.just("run"), DELAYS),       # until == an instant in use
    st.tuples(st.just("step")),
    st.tuples(st.just("step")),
    st.tuples(st.just("until_stopped")),
), min_size=1, max_size=8)


def execute(kernel, programme):
    """Run ``programme`` on ``kernel``; return everything observable."""
    log = []

    def perform(body, path):
        for index, action in enumerate(body):
            tag = path + (index,)
            before = kernel.queue_depth
            if action[0] == "call":
                kernel.call_at(kernel.now + action[1],
                               partial(fire, tag, action[2]))
            elif action[0] == "timeout":
                kernel.timeout(action[1], partial(fire, tag, action[2]))
            elif action[0] == "stop":
                kernel.call_at(kernel.now + action[1], kernel.stop)
            elif action[0] == "raise":
                kernel.call_at(kernel.now + action[1], partial(boom))
            else:
                kernel.process(action[1],
                               lambda step, tag=tag: fire(tag + (step,), []))
            log.append(("push", tag, before, kernel.queue_depth))

    def fire(tag, body):
        log.append(("run", tag, kernel.now, kernel.queue_depth))
        perform(body, tag)

    def drive(index, action):
        if action[0] == "do":
            perform(action[1], (index,))
        elif action[0] == "run":
            kernel.run(until=kernel.now + action[1])
        elif action[0] == "step":
            if kernel.queue_depth:
                kernel.step()
        elif action[0] == "until_stopped":
            kernel.run_until_stopped()
        else:
            kernel.run()

    # A raising call propagates out of the driving call, and the calls
    # queued behind it must still be there, in their places.
    for index, action in enumerate([*programme, ("drain",)]):
        try:
            drive(index, action)
        except Boom:
            log.append(("raised", index, kernel.now, kernel.queued()))
        log.append(("driver", index, kernel.now, kernel.queued()))
    while kernel.queue_depth:
        try:
            kernel.run()
        except Boom:
            log.append(("raised", kernel.now, kernel.queued()))
    log.append(("drained", kernel.now, kernel.queue_depth))
    return log


#: Three calls at t=1, the middle one the stop call / with a nested
#: push: cut by ``run_until_complete`` and walked by ``step``.
_INSTANT_WITH_STOP = [("call", 0.0, [("call", 1.0, []), ("stop", 1.0),
                                     ("call", 1.0, [("call", 0.0, [])])])]
#: Four calls at t=1 whose second raises.
_INSTANT_WITH_RAISE = [("call", 0.0, [("call", 1.0, []), ("raise", 1.0),
                                      ("call", 1.0, [("call", 0.0, [])]),
                                      ("call", 1.0, [])])]


@settings(max_examples=300, deadline=None)
@given(PROGRAMMES)
@example([("do", _INSTANT_WITH_STOP), ("until_stopped",), ("step",)])
@example([("do", _INSTANT_WITH_STOP), ("step",), ("step",), ("step",)])
@example([("do", _INSTANT_WITH_RAISE), ("run", 1.0), ("step",)])
@example([("do", _INSTANT_WITH_RAISE), ("step",), ("step",), ("step",)])
def test_kernel_matches_the_reference_model(programme):
    assert execute(RealKernel(), programme) == \
        execute(ModelKernel(), programme)


def test_the_property_test_reaches_runs():
    """A programme of the shape above does share instants: the
    comparison is not vacuously between one-entry instants."""
    burst = [("call", 1.0, [("call", 0.0, [])])] * 3
    real = RealKernel()
    profile = KernelProfile().attach(real.sim)
    programme = [("do", [("call", 1.0, burst)]), ("run", 1.0)]
    assert execute(real, programme) == execute(ModelKernel(), programme)
    # t=1: the burst's pusher; t=2: three calls and the three each
    # appends to the running instant.
    assert (profile.events_processed, profile.calls_coalesced) == (2, 5)


# ---------------------------------------------------------------------------
# the edges, one by one
# ---------------------------------------------------------------------------

@pytest.fixture
def sim():
    return Simulator()


def burst_at(sim, when, labels, log, fn=None):
    """Push ``fn(label)`` (default ``log.append``) for every label at
    ``when`` from inside the loop."""
    fn = fn or log.append

    def push():
        for label in labels:
            sim.call_at(when, fn, label)

    sim.call_at(sim.now, push)
    sim.step()


class TestRuns:
    """An instant's list, edge by edge."""

    def test_a_burst_is_one_heap_entry_of_numbered_calls(self, sim):
        log = []
        burst_at(sim, 5.0, "abc", log)
        assert sim._times == [5.0] and sim.queue_depth == 3
        assert sim._queue == {5.0: [(log.append, (label,))
                                    for label in "abc"]}
        sim.run()
        assert log == ["a", "b", "c"] and sim.now == 5.0
        assert sim._times == [] and sim._queue == {}

    def test_each_entry_is_labelled_by_its_own_kind(self, sim):
        """What a profiler files an entry under: an event's kind, a
        call's function's label — whatever shares its instant."""
        log = []

        def landing(label):
            log.append(label)

        landing.event_kind = "msg_delivery"
        burst_at(sim, 5.0, "ab", log)
        burst_at(sim, 5.0, "cd", log, fn=landing)
        sim.timeout(5.0)
        assert [entry_kind(entry) for entry in sim._queue[5.0]] == \
            ["call_at", "call_at", "msg_delivery", "msg_delivery", "timeout"]

    def test_step_processes_one_call(self, sim):
        log = []
        burst_at(sim, 5.0, "abc", log)
        for done in (1, 2, 3):
            sim.step()
            assert log == list("abc"[:done])
            assert sim.queue_depth == 3 - done
        assert sim._times == [] and sim._queue == {}

    def test_a_stepped_run_keeps_its_sequence_numbers(self, sim):
        """What a step leaves keeps its order at the head of its
        instant's list, and a later push for that instant goes behind."""
        log = []
        burst_at(sim, 5.0, "abc", log)
        sim.step()
        assert sim._times == [5.0]
        assert sim._queue[5.0] == [(log.append, ("b",)),
                                   (log.append, ("c",))]
        sim.call_at(5.0, log.append, "d")   # from outside the loop
        sim.step()
        assert sim._queue[5.0] == [(log.append, ("c",)),
                                   (log.append, ("d",))]
        sim.run()
        assert log == list("abcd")

    def test_run_until_complete_stops_between_calls(self, sim):
        log, stop = [], sim.event()

        def push():
            sim.call_at(5.0, log.append, "a")
            sim.call_at(5.0, stop.succeed, "done")
            sim.call_at(5.0, log.append, "c")

        sim.call_at(0.0, push)
        assert sim.run_until_complete(stop) == "done"
        assert log == ["a"]
        sim.run()
        assert log == ["a", "c"]

    def test_a_raising_call_leaves_the_rest_queued(self, sim):
        log = []

        def boom():
            raise RuntimeError("boom")

        def push():
            sim.call_at(5.0, log.append, "a")
            sim.call_at(5.0, boom)
            sim.call_at(5.0, log.append, "c")
            sim.call_at(5.0, log.append, "d")

        sim.call_at(0.0, push)
        with pytest.raises(RuntimeError):
            sim.run()
        assert log == ["a"] and sim.queue_depth == 2
        assert sim._times == [5.0]
        assert sim._queue[5.0] == [(log.append, ("c",)),
                                   (log.append, ("d",))]
        sim.run()
        assert log == ["a", "c", "d"]

    def test_a_raising_head_leaves_its_tail_queued(self, sim):
        log = []

        def push():
            sim.call_at(5.0, [].pop)            # IndexError
            sim.call_at(5.0, log.append, "b")
            sim.call_at(5.0, log.append, "c")

        sim.call_at(0.0, push)
        with pytest.raises(IndexError):
            sim.run()
        assert sim.queue_depth == 2
        sim.run()
        assert log == ["b", "c"]

    def test_queue_depth_counts_what_is_left_of_the_running_run(self, sim):
        depths = []

        def push():
            for _ in range(3):
                sim.call_at(5.0, lambda: depths.append(sim.queue_depth))

        sim.call_at(0.0, push)
        sim.timeout(9.0)
        sim.run()
        assert depths == [3, 2, 1]   # the calls behind it + the timeout

    def test_events_and_calls_share_their_instant(self, sim):
        """An event pushed between calls for its instant takes its place
        in the one list, and one for the running instant goes behind
        what that instant still holds."""
        log = []

        def push():
            sim.call_at(5.0, log.append, "a")
            sim.timeout(5.0).callbacks.append(lambda _ev: log.append("t"))
            sim.call_at(5.0, log.append, "b")
            sim.event().succeed().callbacks.append(
                lambda _ev: log.append("e"))
            sim.call_at(5.0, log.append, "c")

        sim.call_at(0.0, push)
        sim.step()
        # The step ran the pusher; the event it succeeded is what is
        # left of t=0.
        assert sorted(sim._times) == [0.0, 5.0]
        assert [entry_kind(entry) for entry in sim._queue[0.0]] == ["event"]
        assert len(sim._queue[5.0]) == 4
        sim.run()
        assert log == ["e", "a", "t", "b", "c"]

    def test_another_instant_opens_another_run(self, sim):
        log = []
        burst_at(sim, 5.0, "ab", log)
        burst_at(sim, 4.0, "cd", log)
        burst_at(sim, 5.0, "ef", log)
        assert sorted(sim._times) == [4.0, 5.0] and sim.queue_depth == 6
        assert len(sim._queue[5.0]) == 4     # both bursts, in push order
        sim.run()
        assert log == list("cdabef")

    def test_a_call_for_the_present_instant_is_pushed(self, sim):
        """Zero delay: the call goes at the end of the running instant's
        list, behind what it already holds, and runs before the loop
        moves on."""
        log = []

        def push():
            sim.call_at(sim.now, log.append, "x")
            sim.call_at(sim.now, log.append, "y")
            assert sim._times == [6.0]
            assert sim._queue[5.0][-3:] == [(log.append, ("b",)),
                                            (log.append, ("x",)),
                                            (log.append, ("y",))]

        sim.call_at(5.0, push)
        sim.call_at(5.0, log.append, "b")
        sim.call_at(6.0, log.append, "later")
        sim.run()
        assert log == ["b", "x", "y", "later"]

    def test_a_push_for_the_running_instant_is_appended(self, sim):
        """An entry of the running instant that pushes for the same
        instant extends the list being run: one pop runs it all."""
        profile = KernelProfile().attach(sim)
        log = []

        def again():
            log.append("again")
            sim.call_at(5.0, log.append, "late")

        def push():
            sim.call_at(5.0, log.append, "a")
            sim.call_at(5.0, again)
            sim.call_at(5.0, log.append, "b")

        sim.call_at(0.0, push)
        sim.run()
        assert log == ["a", "again", "b", "late"]
        assert (profile.events_processed, profile.calls_coalesced) == (2, 3)

    def test_pushes_from_outside_the_loop_join_their_instant(self, sim):
        for label in "abc":
            sim.call_at(5.0, print, label)
        sim.timeout(5.0)
        assert sim._times == [5.0] and len(sim._queue[5.0]) == 4

    def test_run_until_cuts_between_instants_not_inside_a_run(self, sim):
        log = []
        burst_at(sim, 5.0, "abc", log)
        sim.run(until=4.0)
        assert log == [] and sim.queue_depth == 3
        sim.run(until=5.0)
        assert log == ["a", "b", "c"]
        sim.call_at(5.0, log.append, "after")     # the instant is still now
        sim.run()
        assert log[-1] == "after"

    def test_a_prebuilt_call_pushed_n_times_runs_n_times_in_push_order(
            self, sim):
        """``push_call`` queues the very pair it is given, once per push:
        each push runs once, in push order among ``call_at``'s entries
        of its instant, pushes made while the instant runs included."""
        log, pushed = [], []

        def note(label):
            log.append((sim.now, label))

        pair = (note, ("pair",))

        def push(when, label="pair"):
            pushed.append((when, label))
            if label == "pair":
                sim.push_call(when, pair)
            else:
                sim.call_at(when, note, label)

        def mid(label):
            note(label)
            push(sim.now)
            push(sim.now, "z")
            push(5.0)

        push(5.0)
        push(5.0, "x")
        push(3.0)
        pushed.append((3.0, "mid"))
        sim.call_at(3.0, mid, "mid")
        push(3.0, "y")
        push(5.0)
        assert sim._queue[5.0][0] is pair and sim._queue[5.0][2] is pair
        sim.run()
        assert log == sorted(pushed, key=lambda entry: entry[0])
        assert [label for _when, label in log].count("pair") == 5
        assert sim._queue == {} and sim.queue_depth == 0
        with pytest.raises(ValueError):
            sim.push_call(sim.now - 1.0, pair)


class TestProfileOfRuns:
    def test_pops_plus_coalesced_is_what_ran(self, sim):
        profile = KernelProfile().attach(sim)
        log = []
        burst_at(sim, 5.0, "abcd", log)
        sim.timeout(5.0)
        sim.run()
        assert log == list("abcd")
        # pops: the pusher's instant, then t=5 (four calls, the timeout)
        assert profile.events_processed == 2
        assert profile.calls_coalesced == 4
        assert sum(count for count, _wall
                   in profile.by_event_kind.values()) == 6
        profile.stop(sim.now)
        snapshot = profile.snapshot()
        assert snapshot["calls_coalesced"] == 4
        assert snapshot["heap_peak"] == 1                  # instants
        assert snapshot["scheduling"]["max_tie_batch"] == 5  # entries

    def test_a_stepped_run_is_counted_call_by_call(self, sim):
        profile = KernelProfile().attach(sim)
        burst_at(sim, 5.0, "abc", [])
        while sim.queue_depth:
            sim.step()
        assert profile.events_processed == 4
        assert profile.calls_coalesced == 0


# ---------------------------------------------------------------------------
# what the kernel's readers see, pinned on one cell
# ---------------------------------------------------------------------------

#: Per cell: ``KernelProfile`` counters of a 20 us run (3 servers x 3
#: clients, YCSB-A, seed 2021) and the tie-batch sanitizer's
#: ``pair_counts`` in record mode over 10 requests per client (3 x 2
#: clients, seed 2021).  The pops are instants and the kinds count
#: entries; pops + coalesced (1,813 / 2,451 entries run) and the pairs
#: are what the kernel gave when every call had its own heap entry.  A
#: reader that misreads an instant's list moves one of them.
READER_PARITY = {
    "<Linearizable, Synchronous>": (
        # A follower's persisted-waiter wake is a call, not an event.
        {"events_processed": 797, "calls_coalesced": 1016,
         "call_at": 1056, "msg_delivery": 388},
        {("ACK", "ACK"): 28, ("INV", "INV"): 29, ("INV", "kind:call_at"): 1,
         ("VAL", "VAL"): 31, ("kind:call_at", "kind:call_at"): 206,
         ("kind:call_at", "kind:event"): 4,
         ("kind:call_at", "kind:timeout"): 2,
         ("kind:event", "kind:event"): 4,
         ("kind:process_start", "kind:process_start"): 1,
         ("kind:timeout", "kind:timeout"): 8}),
    "<Causal, Eventual>": (
        {"events_processed": 1344, "calls_coalesced": 1107,
         "call_at": 1399, "msg_delivery": 346},
        {("UPD", "UPD"): 26, ("UPD", "kind:timeout"): 1,
         ("kind:call_at", "kind:call_at"): 136,
         ("kind:call_at", "kind:timeout"): 1,
         ("kind:event", "kind:event"): 1,
         ("kind:process_start", "kind:process_start"): 1,
         ("kind:timeout", "kind:timeout"): 21}),
}


@pytest.mark.parametrize("cell", sorted(READER_PARITY))
def test_kernel_readers_count_what_they_counted_before_runs_were_lists(cell):
    """The sanitizer's pairs and the entries run are unchanged since
    every call had its own heap entry."""
    from repro.cluster.config import ClusterConfig
    from repro.core.model import all_ddp_models
    from repro.devtools.sanitizer import TieBatchSanitizer, _run_once
    from tests import harness

    model = next(m for m in all_ddp_models() if str(m) == cell)
    profile = KernelProfile()
    harness.run(model, 20_000.0, profile=profile,
                config=ClusterConfig(servers=3, clients_per_server=3))
    recorder = TieBatchSanitizer(seed=None)
    _run_once(model, 10, 3, 2, 2021, recorder)
    counters, pairs = READER_PARITY[cell]
    kinds = {kind: stats[0] for kind, stats in profile.by_event_kind.items()}
    assert {"events_processed": profile.events_processed,
            "calls_coalesced": profile.calls_coalesced,
            "call_at": kinds["call_at"],
            "msg_delivery": kinds["msg_delivery"]} == counters
    assert recorder.pair_counts == pairs
