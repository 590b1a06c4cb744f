"""Event tracing for simulations.

A :class:`Tracer` collects structured trace records (time, category,
node, details).  Protocol engines emit traces for message sends, state
transitions, persists, and stalls; tests read them back to validate
protocol invariants, and debugging dumps them as text.
A sink is anything with an ``enabled`` flag and an ``emit`` method:
:class:`repro.obs.export.ChromeTraceSink` streams a run's emissions to
a Chrome ``trace_event`` timeline instead of keeping them.

Records come in two shapes:

* **instant events** (``phase == "i"``) — something happened at one
  point in simulated time (a message send, a persist completion);
* **spans** (``phase == "X"``) — something took a duration, recorded at
  its *end* with ``dur`` nanoseconds of extent (a stall, a message
  handler, an NVM persist including queueing).  Instrumentation sites
  compute the duration themselves (``dur=now - start``), so a span costs
  exactly one record and no open-span bookkeeping.  A site that already
  knows when its span will end may record it at its start, stamped with
  that future end (``net_send`` does): records are therefore in time
  order only up to such look-ahead, and everything that renders a
  timeline puts them in time order first (:meth:`Tracer.in_time_order`).

Tracing is off by default (a :class:`NullTracer` is used) so the hot
simulation path pays a single attribute lookup per potential record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "Tracer", "NullTracer"]

INSTANT = "i"
SPAN = "X"
COUNTER = "C"


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry (an instant event, span, or counter sample)."""

    time: float
    category: str
    node: Optional[int]
    details: Dict[str, Any] = field(default_factory=dict)
    phase: str = INSTANT
    dur: float = 0.0
    """Span extent in ns; the record's ``time`` is the span *end*, so
    the span covers ``[time - dur, time]``."""

    @property
    def start(self) -> float:
        return self.time - self.dur

    def format(self) -> str:
        detail_str = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        node_str = f"n{self.node}" if self.node is not None else "--"
        dur_str = f" dur={self.dur:.0f}ns" if self.phase == SPAN else ""
        return (f"[{self.time:>12.1f}ns] {node_str:>4} "
                f"{self.category:<18}{dur_str} {detail_str}")


class Tracer:
    """Collects every trace record, in emission order."""

    enabled = True
    dropped = 0
    """A tracer keeps every record; the run report and the health
    monitor read this count as they read a stream's."""

    def __init__(self):
        self.records: List[TraceRecord] = []

    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        dur: Optional[float] = None,
        phase: Optional[str] = None,
        **details: Any,
    ) -> None:
        """Record one event.

        Passing ``dur`` makes the record a span ending at ``time`` (the
        one way to record a span); ``phase`` overrides the instant/span
        classification (e.g. ``"C"`` for counter samples).  Duck-typed
        tracer sinks that only take ``(time, category, node,
        **details)`` receive ``dur``/``phase`` as ordinary detail keys
        and may ignore them.
        """
        if phase is None:
            phase = SPAN if dur is not None else INSTANT
        self.records.append(TraceRecord(time, category, node, details, phase,
                                        dur if dur is not None else 0.0))

    def in_time_order(self) -> List[TraceRecord]:
        """The records sorted stably by ``time``.

        ``records`` is in *emission* order, which is time order except
        for spans stamped with a computed end a little ahead of the clock
        (``net_send`` is recorded at injection, ending when the message
        is on the link).  Timeline consumers want this view.
        """
        return sorted(self.records, key=attrgetter("time"))

    def by_category(self, category: str) -> Iterator[TraceRecord]:
        return (r for r in self.records if r.category == category)

    def count(self, category: str) -> int:
        return sum(1 for _ in self.by_category(category))

    def categories(self) -> Dict[str, int]:
        """Category -> record count, for timeline summaries."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.category] = counts.get(record.category, 0) + 1
        return counts

    def dump(self, limit: Optional[int] = None) -> str:
        """The records as text, in time order (see :meth:`in_time_order`)."""
        records = self.in_time_order()
        if limit is not None:
            records = records[:limit]
        return "\n".join(r.format() for r in records)

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


class NullTracer:
    """A tracer that drops everything; the default for performance."""

    enabled = False

    def emit(self, *args: Any, **kwargs: Any) -> None:
        pass
