"""Calibrated host time: what makes host-time metrics repeat here.

On a shared 2-core sandbox the same deterministic run takes 0.76 s one
minute and 1.02 s the next (the host slows down and speeds up by 30 %
over minutes, and by 10-20 % within a second), so no statistic of raw
wall time — not even the minimum of 7 fresh processes — repeats within
10 %.  What does repeat is the run's time *relative to a fixed piece of
work timed right beside it*.

:class:`Calibrator` is that fixed work: a small discrete-event loop of
its own (heap of timestamped event objects, generator resumes, callback
lists, a wide dict, a growing record list), written here so that no
change under ``src/`` can move it.  It is allocation- and cache-heavy on
purpose: a tight arithmetic loop does not slow down the way the
simulator does when a neighbour thrashes the cache, and normalising by
it left twice the spread.

:class:`CalibratedClock` times a function while running the calibrator
before, after and — by slicing ``cluster.sim.run`` from outside — in
between, and converts the measured seconds to *reference seconds*:
``seconds x (calibration steps x NOMINAL_STEP_S / calibration seconds)``.
A reference second is a second on a host that runs the calibrator at
``NOMINAL_STEP_S`` per step.  Sized on the parent commit, ten sets of 7
repeats of ``read_local``: raw minima spread 15.7 % (range 29 %),
calibrated medians 1.6 % (range 4.1 %).
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, List, Tuple

#: Seconds per calibrator step on the reference host: the sandbox this
#: benchmark was sized on, in its median state.  Only a scale: it makes
#: reference seconds read like seconds.
NOMINAL_STEP_S = 4.0e-6
#: Steps per calibration burst (about 5 ms).
BURST_STEPS = 1000
#: Calibration time as a share of the measured time it accompanies.
CAL_SHARE = 0.15
#: ``cluster.sim.run`` is advanced in this many slices per run, with
#: calibration bursts between them.
SLICES = 40


class _Event:
    __slots__ = ("callbacks", "value", "kind")

    def __init__(self, value: float):
        self.callbacks: List[Callable[[float], float]] = []
        self.value = value
        self.kind = "timeout"


class Calibrator:
    """Fixed pure-Python work, resumable in bursts."""

    def __init__(self, processes: int = 2000, keys: int = 10_000):
        self._heap: List[Tuple[float, int, _Event]] = []
        self._sequence = 0
        self._table: dict = {}
        self._records: List[tuple] = []
        for index in range(processes):
            resume = self._process(index, keys).send
            event = _Event(resume(None))
            event.callbacks.append(resume)
            self._push(event)
        self.burst()   # first touch of every object, before any clock

    def _process(self, index: int, keys: int):
        now, state = 0.0, index
        while True:
            state = (state * 2654435761 + 12345) % 100_003
            self._table[state % keys] = (now, state)
            now = yield now + 1.0 + state % 13

    def _push(self, event: _Event) -> None:
        heapq.heappush(self._heap, (event.value, self._sequence, event))
        self._sequence += 1

    def burst(self) -> float:
        """Run ``BURST_STEPS`` events; returns the seconds they took."""
        heap, records, push = self._heap, self._records, self._push
        t0 = time.perf_counter()
        for _ in range(BURST_STEPS):
            when, sequence, event = heapq.heappop(heap)
            callbacks, event.callbacks = event.callbacks, None
            for resume in callbacks:
                following = _Event(resume(event.value))
                following.callbacks.append(resume)
                push(following)
            records.append((when, event.kind, sequence))
        if len(records) > 10_000:
            del records[:5_000]
        return time.perf_counter() - t0


class CalibratedClock:
    """Times calls in reference seconds (see the module docstring).
    One clock per cell: its ``speed`` is the host's over that cell."""

    def __init__(self, calibrator: Calibrator):
        self._calibrator = calibrator
        self._bursts = 0
        self._calibration_s = 0.0
        self._measured_s = 0.0

    def _burst(self) -> None:
        self._calibration_s += self._calibrator.burst()
        self._bursts += 1

    def _catch_up(self) -> None:
        """Burst until calibration has its share of the measured time."""
        while self._calibration_s < CAL_SHARE * self._measured_s:
            self._burst()

    def slice_runs(self, sim: Any, duration_ns: float) -> None:
        """Make ``sim.run(until=...)`` advance in ``SLICES`` steps per
        ``duration_ns`` with calibration in between, by assigning a
        wrapper onto the instance.  Running to ``a`` then to ``b`` pops
        the same events in the same order as running to ``b``.  Where a
        refactor stops calling ``sim.run(until=...)`` the wrapper is
        never entered and calibration happens before and after only."""
        run = getattr(sim, "run", None)
        if run is None:
            return

        def sliced(until=None, *args, **kwargs):
            if until is None:
                return run(until, *args, **kwargs)
            start = sim.now
            steps = max(1, round(SLICES * (until - start) / duration_ns))
            for step in range(1, steps):
                t0 = time.perf_counter()
                run(start + (until - start) * step / steps, *args, **kwargs)
                self._measured_s += time.perf_counter() - t0
                self._catch_up()
            return run(until, *args, **kwargs)

        try:
            sim.run = sliced
        except AttributeError:   # __slots__: keep the unsliced run
            pass

    def measure(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """``(fn(), seconds)``: wall seconds inside ``fn`` without the
        calibration that ran in there."""
        if not self._bursts:
            self._burst()
        measured0, calibration0 = self._measured_s, self._calibration_s
        t0 = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - t0
                   - (self._calibration_s - calibration0))
        # The slices inside already counted their part of it.
        self._measured_s = measured0 + elapsed
        self._catch_up()
        return result, elapsed

    @property
    def speed(self) -> float:
        """Reference seconds per second of this host, over the
        calibration this clock ran: below 1 while the host is slow."""
        return self._bursts * BURST_STEPS * NOMINAL_STEP_S / self._calibration_s
