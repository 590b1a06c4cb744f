"""Synchronization and queueing primitives for the simulation kernel.

These are the building blocks the substrates use:

* :class:`Resource` — a counted resource with FIFO waiters.  Models NVM
  banks and request-worker cores.
* :class:`AdmissionPool` — the closed-form counterpart of
  ``Resource.use(hold)`` for holds known on arrival.  Models NIC queue
  pairs and protocol-worker cores.
* :class:`Store` — an unbounded FIFO channel of items.  Models a NIC's
  inbox, for code that reads arrivals as events.
* :class:`Condition` — predicate waiting with explicit re-checks.  Models
  read stalls ("wait until the latest visible version is persisted").
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Deque, Generator, List

from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "AdmissionPool", "Store", "Condition"]


class Resource:
    """A counted resource with FIFO admission.

    ``capacity`` concurrent holders are admitted; further waiters
    queue, FIFO.  Use in a process as::

        yield resource          # a unit, now or when one is released
        try:
            yield service_time  # sleep
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Any] = deque()
        # Telemetry for utilization / queueing analysis.
        self.total_acquires = 0
        self.peak_queue_len = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """An event that triggers when a unit of the resource is granted.

        A free unit with nobody queued is granted in place: the event
        comes back already processed, so ``yield resource.acquire()``
        continues without a heap entry.  A contended grant goes through
        the heap when :meth:`release` hands the unit over, FIFO.
        """
        event = self.sim.event()
        if not self.park(event):
            event.settle(self)
        return event

    def park(self, waiter: Any) -> bool:
        """Queue ``waiter``, a grant event or (``yield resource``) a
        process's wake, unless a free unit is taken now (False)."""
        self.total_acquires += 1
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return False
        self._waiters.append(waiter)
        self.peak_queue_len = max(self.peak_queue_len, len(self._waiters))
        return True

    def try_acquire(self) -> bool:
        """Take a free unit now if nobody is queued — the grant
        :meth:`park` makes in place, without a waiter.  False: the
        caller must queue (``yield resource`` or :meth:`acquire`)."""
        if self._in_use < self.capacity and not self._waiters:
            self.total_acquires += 1
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Return one unit; hands it to the oldest *live* waiter if any.

        A queued waiter whose process was interrupted before admission
        (a crashed node's client, mid-wait) has no callbacks left on its
        event, or its wake was disarmed (argument None); granting it
        would leak the unit forever.  Such dead waiters are skipped — in
        a fault-free run every queued waiter is live, so this path never
        changes healthy admission order.  A wake goes where ``succeed()``
        queues an event.

        A holder being closed (``GeneratorExit``) outside the run loop —
        the collector finalizing a dropped cluster's suspended
        generators — hands the unit to nobody: a wake pushed from a
        finalizer sits in a fresh list of the dropped simulator's queue,
        which makes the collector keep the whole cluster for one more
        pass.  A holder a crash interrupts (``Interrupt``) hands its
        unit on as any other.
        """
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        while self._waiters:
            if (self.sim._cursor is None
                    and sys.exc_info()[0] is GeneratorExit):
                break
            waiter = self._waiters.popleft()
            if waiter.__class__ is tuple:
                if waiter[1][0] is not None:
                    self.sim.push_call(self.sim.now, waiter)
                    return
            elif waiter.callbacks:
                waiter.succeed(self)
                return
        self._in_use -= 1

    def use(self, duration: float) -> Generator:
        """Process helper: acquire, hold for ``duration``, release."""
        yield self.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class AdmissionPool:
    """``capacity`` FIFO servers whose service times are known on arrival.

    :meth:`admit` is ``Resource.use(hold)`` without the process, the
    grant event and the timeout: it books the next arrival onto the
    server that frees first and returns the time service *starts* (the
    caller adds ``hold`` for when it ends).  Arrivals are served in call
    order — exactly the :class:`Resource` waiter deque — so start times
    are the ones contending processes would have observed, float for
    float (a queued start is the freeing holder's ``start + hold``, the
    same sum its timeout would have popped at).

    Not for holds decided at *grant* time (NVM banks under a slowdown
    fault) or for holders that can be interrupted mid-hold (request
    workers): those need the event-based :class:`Resource`.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "pool"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # Min-heap of the times booked servers free up (never-used
        # servers are simply absent), and the FIFO of service starts
        # still in the future — the queue a Resource would be holding.
        self._free_at: List[float] = []
        self._queued_starts: Deque[float] = deque()
        self.total_acquires = 0
        self.peak_queue_len = 0

    @property
    def in_use(self) -> int:
        # A queued arrival is booked behind a server that stays busy
        # until it starts, so busy servers are exactly the units held.
        now = self.sim.now
        return sum(1 for free_at in self._free_at if free_at > now)

    @property
    def queue_len(self) -> int:
        queued, now = self._queued_starts, self.sim.now
        while queued and queued[0] <= now:
            queued.popleft()
        return len(queued)

    def admit(self, hold: float) -> float:
        """Book one arrival at the current time; returns its start time."""
        self.total_acquires += 1
        now = self.sim.now
        free_at = self._free_at
        if free_at and free_at[0] <= now:
            heapq.heapreplace(free_at, now + hold)
            return now
        if len(free_at) < self.capacity:
            heapq.heappush(free_at, now + hold)
            return now
        start = heapq.heapreplace(free_at, free_at[0] + hold)
        self._queued_starts.append(start)
        self.peak_queue_len = max(self.peak_queue_len, self.queue_len)
        return start


class Store:
    """An unbounded FIFO channel.

    ``put`` never blocks; ``get`` returns an event yielding the oldest
    item (immediately if one is buffered).
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_puts = 0
        self.peak_len = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
            self.peak_len = max(self.peak_len, len(self._items))

    def get(self) -> Event:
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class Condition:
    """Wait until a predicate over shared state holds.

    Unlike an event, a condition can be waited on by many processes and
    re-evaluated many times.  State mutators call :meth:`notify` after
    changing anything the predicates may read.  A waiter is a process's
    event (:meth:`wait_for`) or, for a caller that is not a process, a
    call (:meth:`call_when`); both kinds wake in one FIFO.
    """

    __slots__ = ("sim", "waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: ``(predicate, waiter)`` pairs, the waiter an event or a
        #: ``(fn, args)`` call.  A hot mutator may skip :meth:`notify`
        #: while this is empty — there is nothing to wake.
        self.waiters: List[tuple] = []

    def wait_for(self, predicate: Callable[[], bool]) -> Event:
        """Event triggering once ``predicate()`` is true (maybe immediately)."""
        event = self.sim.event()
        if predicate():
            event.succeed()
        else:
            self.waiters.append((predicate, event))
        return event

    def call_when(self, predicate: Callable[[], bool],
                  fn: Callable[..., None], *args: Any) -> None:
        """:meth:`wait_for` without the event: ``fn(*args)`` is pushed with
        ``call_at(now, ...)`` once ``predicate()`` is true — where the
        event's ``succeed()`` would have queued it."""
        if predicate():
            self.sim.call_at(self.sim.now, fn, *args)
        else:
            self.waiters.append((predicate, (fn, args)))

    def notify(self) -> None:
        """Re-check all waiting predicates; wake those now satisfied."""
        if not self.waiters:
            return
        still_waiting = []
        for predicate, waiter in self.waiters:
            if not predicate():
                still_waiting.append((predicate, waiter))
            elif waiter.__class__ is tuple:
                fn, args = waiter
                self.sim.call_at(self.sim.now, fn, *args)
            else:
                waiter.succeed()
        self.waiters = still_waiting

    @property
    def waiter_count(self) -> int:
        return len(self.waiters)
