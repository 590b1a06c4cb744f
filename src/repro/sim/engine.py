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
* Determinism: ties in the heap are broken by an insertion sequence
  number, so two runs with the same seed produce identical schedules.
* A heap entry is ``(when, sequence, entry)``: an :class:`Event`, or a
  *run* of scheduled calls — a plain list of ``(fn, args)`` pairs whose
  member *i* stands for ``(when, sequence + i)``.  A ``call_at`` for the
  instant the push just before it asked for would pop directly after
  it, so it joins that push's run (:meth:`Simulator.call_at`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

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
    """The profiling label of a heap entry: an event's ``kind``; for a
    run of calls, the ``event_kind`` its first function carries, else
    ``"call_at"`` (the network labels its landing function
    ``"msg_delivery"``)."""
    if entry.__class__ is list:
        return getattr(entry[0][0], "event_kind", "call_at")
    return entry.kind


class Timeout(Event):
    """An event that auto-triggers ``delay`` time units in the future."""

    __slots__ = ()

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # ``Event.__init__`` and ``Simulator._schedule`` written out: a
        # fresh event cannot be scheduled twice, and the commonest event
        # there is should cost one frame.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.defused = False
        self.kind = "timeout"
        heappush(sim._heap, (sim.now + delay, sim._sequence, self))
        sim._sequence += 1


class _InPlaceStart:
    """What :meth:`Process._resume` is handed for a process started in
    place: an ok trigger with no value, never on the heap."""

    __slots__ = ()
    _ok = True
    _value = None


class Process(Event):
    """A running coroutine.  The process *is* an event: it triggers when
    the generator returns (value = return value) or raises (failure).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "",
                 inline: bool = False):
        super().__init__(sim)
        self.kind = "process_end"
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        if inline:
            # Started in place: the first segment runs inside the event
            # being processed, exactly where a ``yield from`` of the
            # generator would have run it — nothing is pushed until the
            # generator parks, and the starter's own process (if the
            # starter is one) is the active one again afterwards.
            self._target = None
            starter = sim._active_process
            self._resume(_InPlaceStart)
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
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            else:
                instrument = self.sim.instrument
                if instrument is not None:
                    instrument.callbacks_cancelled += 1
        interrupt_event = Event(self.sim)
        interrupt_event.kind = "interrupt"
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, self.sim.now)

    def _resume(self, trigger: Event) -> None:
        # ``hops`` counts trampoline fast-path continuations (yielding an
        # already-processed event resumes the generator without another
        # heap pop); the attached instrument, if any, collects it on exit.
        instrument = self.sim.instrument
        hops = 0
        try:
            self.sim._active_process = self
            event: Event = trigger
            while True:
                try:
                    if event._ok:
                        target = self.generator.send(event._value)
                    else:
                        event.defused = True
                        target = self.generator.throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    self.sim._active_process = None
                    if self._value is PENDING:
                        # Nobody waiting (the common case for spawned
                        # activities): no process_end pop to do nothing.
                        self.settle(stop.value)
                    return
                except BaseException as exc:
                    self._target = None
                    self.sim._active_process = None
                    if self._value is PENDING:
                        self.fail(exc)
                    else:  # pragma: no cover - double fault
                        raise
                    return

                if not isinstance(target, Event) or target.sim is not self.sim:
                    self._target = None
                    self.sim._active_process = None
                    self.fail(
                        SimulationError(
                            f"process {self.name!r} yielded invalid target "
                            f"{target!r}"
                        )
                    )
                    return

                if target.callbacks is None:
                    # Already processed: continue immediately with its value.
                    event = target
                    hops += 1
                    continue
                target.callbacks.append(self._resume)
                self._target = target
                self.sim._active_process = None
                return
        finally:
            if instrument is not None:
                instrument.resume_segments += 1
                instrument.trampoline_hops += hops


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
    ``before_pop(heap)``/``after_event(entry)`` each pop (an event or a
    run of calls, labelled by :func:`entry_kind`), the kernel
    bumps the four counters, and every segment of a protocol message
    handler goes through ``call_handler`` (a plain call: a handler that
    never waits, or one stretch of one that parks between callbacks) or
    ``drive_handler`` (the generator a segment returned when what is
    left loops over waits, wrapped by one that must yield exactly what
    it yields).  ``resumed`` marks a plain call that continues a handler
    already counted: its message is counted once, its time every time."""

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
            yield sim.timeout(5)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List = []
        self._sequence = 0
        # The open run: the latest ``call_at`` push's list, its
        # timestamp, the number after its last member (any other push
        # moves past it).
        self._run: List = []
        self._run_when, self._run_next = 0.0, -1
        self._running: Any = None  # entry being processed; None outside the loop
        self._ran = 0  # members of the running run that returned
        self._active_process: Optional[Process] = None
        # The one optional :class:`Instrument` (kernel profiler or
        # tie-batch sanitizer).  None by default, so the run loop pays
        # two ``is not None`` checks per event and nothing else.
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
        heappush(self._heap, (when, self._sequence, event))
        self._sequence += 1

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now).

        The timestamp is used as given — a caller that computed
        ``when`` as ``t + d`` gets exactly the float a ``timeout(d)``
        created at ``t`` would pop at.  The call is the pair
        ``(fn, args)`` and nothing else: a profiler labels it by what
        ``fn`` carries (:func:`entry_kind`).

        The call joins the open run instead of being pushed when
        (a) nothing at all was pushed since the run's last member,
        (b) ``when`` is the run's, (c) ``when`` is in the future — a
        popped run is never joined — and (d) the run loop is making the
        call.  No other entry can sort between ``(when, s)`` and
        ``(when, s + 1)``, so nothing moves in time or in order.
        """
        now = self.now
        if when < now:
            raise ValueError(f"call_at into the past: {when} < {now}")
        sequence = self._sequence
        if (sequence == self._run_next and when == self._run_when
                and when > now and self._running is not None):
            self._run.append((fn, args))
        else:
            run = [(fn, args)]
            heappush(self._heap, (when, sequence, run))
            self._run = run
            self._run_when = when
        self._sequence = self._run_next = sequence + 1

    # -- running ------------------------------------------------------------------

    def _drive(self, until: Optional[float] = None,
               stop: Optional[Event] = None,
               limit: Optional[int] = None) -> None:
        """The run loop: pop and process entries in ``(when, sequence)``
        order until the heap drains, the next one lies past ``until``,
        ``stop`` has triggered, or ``limit`` pops ran.

        A run's members are called in order inside its one pop.  Under
        ``stop``/``limit`` a run gives up one member per pop (the rest
        stays queued under the next number); a call that raises leaves
        the calls behind it queued under their own numbers.
        An attached instrument brackets the loop and each pop; it sees
        the same pops in the same order, so an instrumented run stays
        byte-identical to a bare one.
        """
        heap = self._heap
        instrument = self.instrument
        call_by_call = stop is not None or limit is not None
        if instrument is not None:
            instrument.loop_enter()
        try:
            while heap:
                if call_by_call:
                    if stop is not None and stop._value is not PENDING:
                        return
                    when, sequence, entry = heap[0]
                    # One member per pop: the rest of the run waits
                    # under the next member's number.
                    if entry.__class__ is list and len(entry) > 1:
                        heappush(heap, (when, sequence + 1, entry[1:]))
                        del entry[1:]
                if until is not None and heap[0][0] > until:
                    return
                if instrument is not None:
                    instrument.before_pop(heap)
                self.now, sequence, entry = heappop(heap)
                self._running = entry
                if entry.__class__ is list:
                    self._ran = 0
                    try:
                        for fn, args in entry:
                            fn(*args)
                            self._ran += 1
                    except BaseException:
                        left = self._ran + 1
                        if left < len(entry):
                            heappush(heap, (self.now, sequence + left,
                                            entry[left:]))
                        raise
                    if instrument is not None:
                        instrument.after_event(entry)
                else:
                    callbacks, entry.callbacks = entry.callbacks, None
                    for callback in callbacks:
                        callback(entry)
                    if instrument is not None:
                        instrument.after_event(entry)
                    if entry._ok is False and not entry.defused:
                        # A failure nobody consumed: surface it instead
                        # of losing it.
                        raise entry._value
                if limit is not None:
                    limit -= 1
                    if limit == 0:
                        return
        finally:
            self._running = None
            if instrument is not None:
                instrument.loop_exit()

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        self._drive(limit=1)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or ``until`` (absolute ns) is reached."""
        if until is not None and until < self.now:
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
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def queue_depth(self) -> int:
        """Scheduled-but-unprocessed events and calls (the backlog the
        health monitor samples), counted when asked: every event, every
        member of every queued run, what is left of the run being
        executed."""
        depth = sum(len(entry) if entry.__class__ is list else 1
                    for _when, _seq, entry in self._heap)
        running = self._running
        if running.__class__ is list:
            depth += len(running) - self._ran - 1
        return depth
