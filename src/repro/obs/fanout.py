"""Fan one stream of trace emissions out to several sinks.

Engines hold exactly one ``tracer`` attribute; when a run wants both a
timeline (a :class:`repro.obs.export.ChromeTraceSink` or a
:class:`repro.sim.trace.Tracer`) and derived measurements (a
:class:`repro.obs.journey.JourneyTracker`), a :class:`FanoutTracer`
forwards every ``emit`` to all of them.  It is enabled iff any sink is enabled, so a
fanout of disabled sinks keeps the engine fast path intact.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

__all__ = ["FanoutTracer"]


class FanoutTracer:
    """Forward every emission to each underlying sink."""

    def __init__(self, sinks: Iterable[Any]):
        self.sinks = [sink for sink in sinks if sink is not None]
        self.enabled = any(getattr(sink, "enabled", True)
                           for sink in self.sinks)

    def emit(self, time: float, category: str, node: Optional[int] = None,
             **details: Any) -> None:
        for sink in self.sinks:
            sink.emit(time, category, node=node, **details)

    def __len__(self) -> int:
        return sum(len(sink) for sink in self.sinks
                   if hasattr(sink, "__len__"))
