"""Discrete-event simulation kernel.

This module provides the event loop that the whole reproduction runs on.
It is a compact, generator-coroutine kernel in the style of SimPy:
processes are Python generators that ``yield`` events, and the simulator
advances virtual time by popping the earliest scheduled event from a heap.

Design notes
------------
* Time is a ``float`` in **nanoseconds**.  All other packages
  (:mod:`repro.net`, :mod:`repro.memory`, ...) express latencies in ns so
  that NVM persists (hundreds of ns) and network round trips (thousands
  of ns) live on the same axis, as in the paper's Table 5.
* Events carry a payload (``value``) and an ok/failed status.  Failing an
  event propagates the exception into every waiting process; a failed
  process that nobody waits on re-raises from the run loop, so
  protocol bugs surface as test failures rather than silent hangs.
* The queue is per instant: a heap of the distinct pending timestamps
  (plain floats) and a dict from each timestamp to the list of its
  entries — events and scheduled calls, a call being the bare pair
  ``(fn, args)``, a process's wake among them — in push order.
  Entries that share an
  instant run in the order they were pushed, those pushed while the
  instant runs included, so two runs with the same seed produce
  identical schedules.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Interrupt",
    "Instrument",
    "Simulator",
    "SimulationError",
    "entry_kind",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. double-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


PENDING = object()
"""Unique sentinel for the value of an untriggered event."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is later *triggered* exactly once with
    either :meth:`succeed` or :meth:`fail`.  Processes that yielded the
    event are resumed when the simulator processes the trigger.

    ``kind`` is a profiling label: creation sites that know what an
    event *means* (a timeout, an inbox delivery, a process start, ...)
    overwrite the generic default so an attached
    :class:`~repro.obs.profile.KernelProfile` can bucket kernel time by
    event kind (:func:`entry_kind`).  It is pure metadata — nothing in
    the kernel branches on it, so unprofiled runs behave identically.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "defused",
                 "kind")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self.defused = False
        self.kind = "event"

    # -- state inspection ----------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (even if not yet processed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------------

    def succeed(self, value: Any = None) -> Event:
        """Trigger the event successfully, resuming waiters with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, self.sim.now)
        return self

    def fail(self, exc: BaseException) -> Event:
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, self.sim.now)
        return self

    def settle(self, value: Any = None) -> None:
        """Succeed, going through the heap only if somebody is waiting.

        With a callback attached this is :meth:`succeed`.  With none, the
        event is marked processed in place: a later ``yield`` of it
        resumes at once (the already-processed fast path), and no heap
        entry is spent on an occurrence nobody observes.
        """
        if self.callbacks:
            self.succeed(value)
            return
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.callbacks = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def entry_kind(entry: Any) -> str:
    """The profiling label of a queued entry: an event's ``kind``; for a
    call, the ``event_kind`` its function carries, else ``"call_at"``
    (the network labels its landing function ``"msg_delivery"``, a
    process's wake is a ``"timeout"``)."""
    if entry.__class__ is tuple:
        return getattr(entry[0], "event_kind", "call_at")
    return entry.kind


class Timeout(Event):
    """An event that auto-triggers ``delay`` time units in the future."""

    __slots__ = ()

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        if not delay >= 0:  # NaN too
            raise ValueError(f"negative timeout delay: {delay}")
        # ``Event.__init__`` and ``Simulator._schedule`` written out: a
        # fresh event cannot be scheduled twice.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.defused = False
        self.kind = "timeout"
        when = sim.now + delay
        if when in sim._queue:
            sim._queue[when].append(self)
        else:
            sim._queue[when] = [self]
            heappush(sim._times, when)


class _Woken:
    """What :meth:`Process._resume` is handed for a process started in
    place or woken by its wake: an ok trigger with no value, never on
    the heap."""

    __slots__ = ()
    _ok = True
    _value = None


class Process(Event):
    """A running coroutine.  The process *is* an event: it triggers when
    the generator returns (value = return value) or raises (failure).

    It may also yield a number, to sleep, or a ``Resource``, to queue:
    both wait on its *wake*, the call ``(self._resume, [_Woken])`` built
    at the first such wait, pushed where a ``Timeout`` or a grant
    event's ``succeed()`` would be.  An interrupt disarms a pending wake
    (its argument becomes None), so a stale one resumes nothing.
    """

    __slots__ = ("generator", "_target", "name", "_wake")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "",
                 inline: bool = False):
        super().__init__(sim)
        self.kind = "process_end"
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._wake: Optional[tuple] = None
        if inline:
            # Started in place: the first segment runs inside the event
            # being processed, exactly where a ``yield from`` of the
            # generator would have run it — nothing is pushed until the
            # generator parks, and the starter's own process (if the
            # starter is one) is the active one again afterwards.
            self._target = None
            starter = sim._active_process
            self._resume(_Woken)
            sim._active_process = starter
            return
        # Kick off the process via an already-triggered initialization
        # event, so that it starts from within the event loop.
        init = Event(sim)
        init.kind = "process_start"
        init._ok = True
        init._value = None
        sim._schedule(init, sim.now)
        init.callbacks.append(self._resume)
        self._target: Optional[Event] = init

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        target, cancelled = self._target, True
        if target.__class__ is tuple:  # a pending wake: disarm it
            target[1][0] = self._wake = None
        elif target is not None and self._resume in (target.callbacks or ()):
            target.callbacks.remove(self._resume)
        else:
            cancelled = False
        if cancelled and self.sim.instrument is not None:
            self.sim.instrument.callbacks_cancelled += 1
        interrupt_event = Event(self.sim)
        interrupt_event.kind = "interrupt"
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, self.sim.now)

    def _arm(self) -> tuple:
        self._wake = (self._resume, [_Woken])
        return self._wake

    def _resume(self, trigger: Optional[Event]) -> None:
        if trigger is None:  # a wake an interrupt disarmed
            return
        # ``hops`` counts trampoline fast-path continuations (yielding an
        # already-processed event resumes the generator without another
        # heap pop); the attached instrument, if any, collects it on exit.
        sim = self.sim
        instrument = sim.instrument
        hops = 0
        try:
            sim._active_process = self
            event: Event = trigger
            while True:
                try:
                    if event._ok:
                        target = self.generator.send(event._value)
                    else:
                        event.defused = True
                        target = self.generator.throw(event._value)
                        # Handled: its traceback would keep the frames
                        # it passed through alive (CPython 3.12 leaves
                        # them in a cycle only the collector frees).
                        event._value.__traceback__ = None
                except StopIteration as stop:
                    if not event._ok:  # handled, then returned
                        event._value.__traceback__ = None
                    self._target = self._wake = None
                    sim._active_process = None
                    if self._value is PENDING:
                        # Nobody waiting (the common case for spawned
                        # activities): no process_end pop to do nothing.
                        self.settle(stop.value)
                    return
                except BaseException as exc:
                    self._target = self._wake = None
                    sim._active_process = None
                    if self._value is PENDING:
                        self.fail(exc)
                    else:  # pragma: no cover - double fault
                        raise
                    return

                kind = target.__class__
                if kind is float or kind is int:
                    if not target >= 0:  # NaN too: thrown where a Timeout raises
                        event = Event(sim)
                        event._ok = False
                        event._value = ValueError(f"negative sleep: {target}")
                        continue
                    # A sleep: the wake goes where a Timeout would have.
                    self._target = wake = self._wake or self._arm()
                    when = sim.now + target
                    if when in sim._queue:
                        sim._queue[when].append(wake)
                    else:
                        sim._queue[when] = [wake]
                        heappush(sim._times, when)
                elif isinstance(target, Event) and target.sim is sim:
                    if target.callbacks is None:
                        # Already processed: continue immediately with its value.
                        event = target
                        hops += 1
                        continue
                    target.callbacks.append(self._resume)
                    self._target = target
                elif hasattr(target, "park") and target.sim is sim:
                    # A Resource: the wake queues unless a unit is free.
                    wake = self._wake or self._arm()
                    if not target.park(wake):
                        event = _Woken
                        hops += 1
                        continue
                    self._target = wake
                else:
                    self._target = self._wake = None
                    sim._active_process = None
                    self.fail(SimulationError(
                        f"process {self.name!r} yielded invalid target "
                        f"{target!r}"))
                    return
                sim._active_process = None
                return
        finally:
            if instrument is not None:
                instrument.resume_segments += 1
                instrument.trampoline_hops += hops

    # What a profiler files any wake under (entry_kind), a grant's too.
    _resume.event_kind = "timeout"


class AllOf(Event):
    """Triggers when *all* child events have succeeded.

    Value is the list of child values, in the order given.  Fails fast if
    any child fails.
    """

    __slots__ = ("_children", "_pending_count")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self.kind = "composite"
        self._children = list(events)
        self._pending_count = 0
        for child in self._children:
            if child.callbacks is None:
                if not child.ok:
                    raise child.value
                continue
            self._pending_count += 1
            child.callbacks.append(self._on_child)
        if self._pending_count == 0:
            self.succeed([c.value for c in self._children])

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            child.defused = True
            return
        if not child._ok:
            child.defused = True
            self.fail(child._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([c.value for c in self._children])


class Instrument:
    """No-op base of the one optional kernel observer, ``sim.instrument``
    (DESIGN.md §3): ``loop_enter``/``loop_exit`` bracket the run loop,
    ``before_pop(times, entries)`` precedes each pop of an instant (the
    pending instants, the unrun entries of their head), ``after_event``
    follows each entry, run or raised (labelled by :func:`entry_kind`),
    the kernel bumps the four counters, and every segment of a protocol
    message handler goes through ``call_handler`` (a plain call: a
    handler that never waits, or one stretch of one that parks between
    callbacks) or ``drive_handler`` (the generator a segment returned
    when what is left loops over waits, wrapped by one that must yield
    exactly what it yields).  ``resumed`` marks a plain call that
    continues a handler already counted: its message is counted once,
    its time every time."""

    __slots__ = ()
    processes_spawned = callbacks_cancelled = 0
    resume_segments = trampoline_hops = 0

    def attach(self, sim: Simulator) -> Instrument:
        if sim.instrument is not None:
            raise SimulationError(
                f"cannot attach {type(self).__name__}: "
                f"{type(sim.instrument).__name__} is already attached")
        sim.instrument = self
        return self

    def _noop(self, *_args: Any) -> None:
        pass

    loop_enter = loop_exit = before_pop = after_event = _noop

    def drive_handler(self, label: str, handler: Generator) -> Generator:
        return handler

    def call_handler(self, label: str, handler: Callable[..., Any],
                     *args: Any, resumed: bool = False) -> Any:
        return handler(*args)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()

        def worker():
            yield 5  # sleep 5 ns; ``yield sim.timeout(5)`` waits the same
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    def __init__(self):
        self.now: float = 0.0
        # Pending instants (a heap of floats, each once) and each one's
        # entries in push order; the running instant is off the heap but
        # keeps its list, which its own same-instant pushes extend.
        self._times: List[float] = []
        self._queue: Dict[float, List] = {}
        # The loop's iterator over that list (None outside the loop).
        self._cursor: Any = None
        self._active_process: Optional[Process] = None
        # The one optional :class:`Instrument` (kernel profiler or
        # tie-batch sanitizer).  None by default, so the run loop pays
        # two ``is not None`` checks per entry and nothing else.
        self.instrument: Optional[Instrument] = None

    # -- factory helpers ------------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "",
                inline: bool = False) -> Process:
        """Launch a generator as a concurrent process, starting now.

        ``inline`` starts it *in place* instead: its first segment runs
        before this call returns, with no ``process_start`` heap entry.
        That is what a caller that is not itself a generator needs to
        continue with one (a callback handler reaching a loop over
        waits): a heap start would be one more same-instant hop, which
        reorders ties against everything else scheduled at that instant.
        """
        if self.instrument is not None:
            self.instrument.processes_spawned += 1
        return Process(self, generator, name, inline)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, event: Event, when: float) -> None:
        """Push ``event`` at the absolute time ``when``, as given."""
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        if when in self._queue:
            self._queue[when].append(event)
        else:
            self._queue[when] = [event]
            heappush(self._times, when)

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now).

        The timestamp is used as given — a caller that computed
        ``when`` as ``t + d`` gets exactly the float a ``timeout(d)``
        created at ``t`` would pop at.  The call is the pair
        ``(fn, args)`` and nothing else: a profiler labels it by what
        ``fn`` carries (:func:`entry_kind`).  It goes at the end of its
        instant's list — the running instant's too: it runs before the
        loop moves on."""
        if not when >= self.now:  # NaN too
            raise ValueError(f"call_at into the past: {when} < {self.now}")
        if when in self._queue:
            self._queue[when].append((fn, args))
        else:
            self._queue[when] = [(fn, args)]
            heappush(self._times, when)

    def push_call(self, when: float, call: tuple) -> None:
        """Queue ``call``, an already-built ``(fn, args)`` pair, at
        ``when``: what :meth:`call_at` queues, for a caller that pushes
        one pair many times instead of a fresh pair per call."""
        if not when >= self.now:  # NaN too
            raise ValueError(f"push_call into the past: {when} < {self.now}")
        if when in self._queue:
            self._queue[when].append(call)
        else:
            self._queue[when] = [call]
            heappush(self._times, when)

    # -- running ------------------------------------------------------------------

    def _drive(self, until: Optional[float] = None,
               stop: Optional[Event] = None, limit: int = 0) -> None:
        """The run loop: pop instants in time order and run each one's
        list to its end — entries it appends to itself included — until
        the queue drains, the next instant lies past ``until``, ``stop``
        has triggered, or ``limit`` entries ran (0: no limit).

        ``stop`` and ``limit`` are looked at between entries; leaving
        mid-instant, or on an entry that raises, keeps the rest of the
        instant's list queued, in order, at the same instant.  A run
        leaves no cyclic garbage, so the collector (if on) is paused.
        An attached instrument brackets the loop, each pop and each
        entry: it sees what a bare run runs, in the same order."""
        times, queue = self._times, self._queue
        instrument = self.instrument
        stepping = stop is not None or limit
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        if instrument is not None:
            instrument.loop_enter()
        cursor = None
        try:
            if stop is not None and stop._value is not PENDING:
                return
            while times:
                when = times[0]
                if until is not None and when > until:
                    return
                entries = queue[when]
                if instrument is not None:
                    instrument.before_pop(times, entries)
                heappop(times)
                self.now = when
                self._cursor = cursor = iter(entries)
                for entry in cursor:
                    try:
                        if entry.__class__ is tuple:
                            fn, args = entry
                            fn(*args)
                        else:
                            callbacks, entry.callbacks = entry.callbacks, None
                            for callback in callbacks:
                                callback(entry)
                            if entry._ok is False and not entry.defused:
                                # A failure nobody consumed: surface it
                                # instead of losing it.
                                raise entry._value
                    finally:
                        if instrument is not None:
                            instrument.after_event(entry)
                    if stepping:
                        limit -= 1
                        if not limit or (stop is not None
                                         and stop._value is not PENDING):
                            return
                del queue[when]
                cursor = None
        finally:
            self._cursor = None
            if cursor is not None:  # left mid-instant
                left = cursor.__length_hint__()
                if left:
                    del entries[:len(entries) - left]
                    heappush(times, when)
                else:
                    del queue[when]
            if instrument is not None:
                instrument.loop_exit()
            if collecting:
                gc.enable()

    def step(self) -> None:
        """Process the single next entry."""
        if not self._times:
            raise SimulationError("step() on an empty event queue")
        self._drive(limit=1)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` (absolute ns) is reached."""
        if until is not None and not until >= self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        self._drive(until=until)
        if until is not None:
            self.now = until

    def run_until_complete(self, event: Event) -> Any:
        """Run until ``event`` (usually a process) triggers; return its
        value (or raise its failure)."""
        self._drive(stop=event)
        if not event.triggered:
            raise SimulationError(f"deadlock: {getattr(event, 'name', event)!r} "
                                  f"still pending with no events")
        if not event.ok:
            # The caller consumes the failure here; the event's own
            # completion entry (still queued) must not re-raise it.
            event.defused = True
            raise event.value
        return event.value

    def peek(self) -> float:
        """Time of the next entry: ``now`` while the running instant has
        entries left, else the next instant's (``inf`` if none)."""
        cursor = self._cursor
        if cursor is not None and cursor.__length_hint__():
            return self.now
        return self._times[0] if self._times else float("inf")

    @property
    def queue_depth(self) -> int:
        """Entries not yet run (the backlog the health monitor samples),
        counted when asked: every list, less what its instant ran."""
        depth = sum(map(len, self._queue.values()))
        cursor = self._cursor
        if cursor is not None:
            depth -= len(self._queue[self.now]) - cursor.__length_hint__()
        return depth
