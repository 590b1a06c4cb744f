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
  process that nobody waits on re-raises from :meth:`Simulator.step`, so
  protocol bugs surface as test failures rather than silent hangs.
* Determinism: ties in the heap are broken by an insertion sequence
  number, so two runs with the same seed produce identical schedules.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Callback",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
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
    event *means* (a timeout, a message delivery, a ``call_at``
    callback, ...) overwrite the generic default so an attached
    :class:`~repro.obs.profile.KernelProfile` can bucket kernel time by
    event kind.  It is pure metadata — nothing in the kernel branches
    on it, so unprofiled runs behave identically.
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
        self.sim._schedule(self, 0.0)
        return self

    def fail(self, exc: BaseException) -> Event:
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, 0.0)
        return self

    def trigger(self, other: Event) -> None:
        """Mirror another (triggered) event's outcome onto this one."""
        if other._ok:
            self.succeed(other._value)
        else:
            other.defused = True
            self.fail(other._value)

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

    # -- internal ------------------------------------------------------------

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Callback:
    """A scheduled plain function call: the heap entry behind
    :meth:`Simulator.call_at`.

    Nothing can wait on it, so it carries no callback list, value or
    status — only what the run loops read off any heap entry
    (``_run_callbacks``, ``_ok``, ``defused``, ``kind``).  ``kind`` is
    the same profiling label as :attr:`Event.kind`; the network relabels
    its landings ``"msg_delivery"``.
    """

    __slots__ = ("fn", "args", "kind")
    _ok = True
    defused = False

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args
        self.kind = "call_at"

    def _run_callbacks(self) -> None:
        self.fn(*self.args)


class Timeout(Event):
    """An event that auto-triggers ``delay`` time units in the future."""

    __slots__ = ()

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.kind = "timeout"
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A running coroutine.  The process *is* an event: it triggers when
    the generator returns (value = return value) or raises (failure).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "",
                 start_at: Optional[float] = None):
        super().__init__(sim)
        self.kind = "process_end"
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process via an already-triggered initialization
        # event, so that it starts from within the event loop — now, or
        # at the absolute time ``start_at`` (the wake-up *is* the timed
        # event: no separate timeout to park on first).
        init = Event(sim)
        init.kind = "process_start"
        init._ok = True
        init._value = None
        sim._schedule_at(init, sim.now if start_at is None else start_at)
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
                profile = self.sim.profile
                if profile is not None:
                    profile.callbacks_cancelled += 1
        interrupt_event = Event(self.sim)
        interrupt_event.kind = "interrupt"
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, 0.0)

    def _resume(self, trigger: Event) -> None:
        # ``hops`` counts trampoline fast-path continuations (yielding an
        # already-processed event resumes the generator without another
        # heap pop); the attached profile, if any, collects it on exit.
        profile = self.sim.profile
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
            if profile is not None:
                profile.resume_segments += 1
                profile.trampoline_hops += hops


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


class AnyOf(Event):
    """Triggers when the *first* child event triggers (ok or failed).

    Value is ``(index, value)`` of the first child to complete.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self.kind = "composite"
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            if child.callbacks is None:
                if child.ok:
                    self.succeed((index, child.value))
                else:
                    self.fail(child.value)
                return
            child.callbacks.append(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(child: Event) -> None:
            if self.triggered:
                child.defused = True
                return
            if child._ok:
                self.succeed((index, child._value))
            else:
                child.defused = True
                self.fail(child._value)

        return on_child


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
        self._active_process: Optional[Process] = None
        # Optional kernel profiler (see repro.obs.profile.KernelProfile).
        # None by default so the hot loop pays one attribute check per
        # step and nothing else.
        self.profile = None
        # Optional tie-batch order sanitizer (see
        # repro.devtools.sanitizer.TieBatchSanitizer): observes — and in
        # sanitizing mode permutes — same-timestamp pop batches.  Same
        # contract as ``profile``: None by default, one check per run.
        self.order_sanitizer = None

    # -- factory helpers ------------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "",
                start_at: Optional[float] = None) -> Process:
        """Launch a generator as a concurrent process, starting now or at
        the absolute time ``start_at`` (>= now)."""
        if start_at is not None and start_at < self.now:
            raise ValueError(
                f"process start in the past: {start_at} < {self.now}")
        if self.profile is not None:
            self.profile.processes_spawned += 1
        return Process(self, generator, name, start_at)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))
        self._sequence += 1

    def _schedule_at(self, event: Event, when: float) -> None:
        """:meth:`_schedule` at an absolute time, pushed as given."""
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        heapq.heappush(self._heap, (when, self._sequence, event))
        self._sequence += 1

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> Callback:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now).

        The timestamp is pushed as given — a caller that computed
        ``when`` as ``t + d`` gets exactly the float a ``timeout(d)``
        created at ``t`` would pop at.  Returns the heap entry so the
        caller may relabel its ``kind``.
        """
        if when < self.now:
            raise ValueError(f"call_at into the past: {when} < {self.now}")
        entry = Callback(fn, args)
        heapq.heappush(self._heap, (when, self._sequence, entry))
        self._sequence += 1
        return entry

    def call_soon(self, fn: Callable[..., None], *args: Any) -> Callback:
        """Run a plain callback at the current time, after pending events."""
        return self.call_at(self.now, fn, *args)

    # -- running ------------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event."""
        profile = self.profile
        if profile is not None:
            self._profiled_step(profile)
            return
        when, _seq, event = heapq.heappop(self._heap)
        self.now = when
        event._run_callbacks()
        if event._ok is False and not event.defused:
            # A failure nobody consumed: surface it instead of losing it.
            raise event._value

    def _profiled_step(self, profile: Any) -> None:
        """The :meth:`step` body with attribution hooks around it.

        Identical scheduling semantics — same pop, same callback order —
        so a profiled run stays byte-identical to an unprofiled one; the
        profile merely brackets each event with wall-clock reads and
        scheduling statistics (see ``KernelProfile.step_start/step_end``).
        """
        t0 = profile.step_start(len(self._heap), self._heap[0][0])
        when, _seq, event = heapq.heappop(self._heap)
        self.now = when
        event._run_callbacks()
        profile.step_end(event.kind, event.defused, t0)
        if event._ok is False and not event.defused:
            # A failure nobody consumed: surface it instead of losing it.
            raise event._value

    def _sanitized_run(self, until: Optional[float], sanitizer: Any) -> None:
        """The :meth:`run` loop popping whole same-timestamp *waves*.

        All entries tied at the next timestamp are popped together and
        handed to the sanitizer, which records the batch and (in
        sanitizing mode) permutes its processing order.  With the
        identity permutation this is exactly the plain loop: the heap
        yields ties in insertion-sequence order, and events scheduled
        *while* a wave runs always carry larger sequence numbers, so
        they land in a later wave just as they would pop later.
        """
        heap = self._heap
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return
            batch = [heapq.heappop(heap)]
            while heap and heap[0][0] == when:
                batch.append(heapq.heappop(heap))
            if len(batch) > 1:
                sanitizer.observe(when, batch)
            self.now = when
            for _when, _seq, event in batch:
                event._run_callbacks()
                if event._ok is False and not event.defused:
                    raise event._value
        if until is not None:
            self.now = until

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or ``until`` (absolute ns) is reached."""
        if until is not None and until < self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        if self.order_sanitizer is not None:
            self._sanitized_run(until, self.order_sanitizer)
            return
        profile = self.profile
        if profile is None:
            while self._heap:
                when = self._heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
                self.step()
            if until is not None:
                self.now = until
            return
        t0 = profile.loop_enter()
        try:
            while self._heap:
                when = self._heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
                self._profiled_step(profile)
            if until is not None:
                self.now = until
        finally:
            profile.loop_exit(t0)

    def run_until_complete(self, process: Process) -> Any:
        """Run until ``process`` finishes; return its value (or raise)."""
        profile = self.profile
        t0 = profile.loop_enter() if profile is not None else 0.0
        try:
            while not process.triggered:
                if not self._heap:
                    raise SimulationError(
                        f"deadlock: {process.name!r} still pending with no events"
                    )
                self.step()
        finally:
            if profile is not None:
                profile.loop_exit(t0)
        if not process.ok:
            # The caller consumes the failure here; the process's own
            # completion event (still queued) must not re-raise it.
            process.defused = True
            raise process.value
        return process.value

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def queue_depth(self) -> int:
        """Scheduled-but-unprocessed events (the kernel's backlog; the
        health monitor samples this as its load signal)."""
        return len(self._heap)
