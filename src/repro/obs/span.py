"""Span primitives: named begin/end intervals on the simulated clock.

A span scopes one operation of one rank — a block read, a pooled
advection call, a message post.  Spans are the observability layer's
basic unit: the Perfetto exporter turns them into timeline slices, the
per-rank Gantt renderer buckets them, and spans carrying a
:class:`~repro.sim.metrics.TimerCategory` *are* the timer — on exit they
charge ``end - start`` to the rank's :class:`RankMetrics`, replacing the
ad-hoc ``charge()`` calls the simulator layers used to make.

Spans are created through :meth:`repro.obs.recorder.Recorder.span` (or
the :func:`repro.obs.span` convenience wrapper over a ``RankContext``)
and used as context managers inside simulator coroutines::

    with ctx.obs.span(ctx.rank, "io.read", category=TimerCategory.IO,
                      metrics=ctx.metrics):
        yield Sleep(elapsed)

Simulated time passes at the ``yield`` points inside the ``with`` block,
so ``end - start`` measures simulated (not host) duration.

Cost discipline: a charging span must always run (the timers feed the
paper's metrics whether or not observability is on), so it stays slim —
``__slots__``, a lazily-allocated attrs dict, and no record retention
when the owning recorder is disabled.  Recording-only spans at hot call
sites should be guarded with ``if obs.enabled:`` and fall back to the
shared :data:`NULL_SPAN` so the disabled path allocates nothing.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple


def freeze_attrs(attrs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """A record's attrs: the dict's items as a key-sorted tuple."""
    if len(attrs) > 1:
        return tuple(sorted(attrs.items()))
    return tuple(attrs.items())


class SpanRecord(NamedTuple):
    """One completed span: a half-open interval on the simulated clock.

    A tuple, not a dataclass: a run makes tens of thousands, and one
    positional tuple costs a third of a frozen-dataclass ``__init__``
    and carries no per-instance ``__dict__`` for the collector to walk.
    """

    rank: int
    name: str
    start: float
    end: float
    depth: int
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


class NullSpan:
    """Shared no-op context manager for disabled instrumentation sites."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self


#: The singleton no-op span.  Reentrant and stateless: hot paths do
#: ``with (obs.span(...) if obs.enabled else NULL_SPAN):`` so the
#: disabled path allocates nothing.
NULL_SPAN = NullSpan()


class Span:
    """A live (open) span; create via ``Recorder.span``, use as a
    context manager.

    ``category``/``metrics``: when both are given, exiting the span
    charges ``end - start`` simulated seconds to
    ``metrics.charge(category, ...)`` — whether or not the recorder is
    enabled (the timers are part of the normal run outcome; the recorded
    interval is the optional extra).
    """

    __slots__ = ("_rec", "rank", "name", "category", "metrics",
                 "_attrs", "start", "_depth", "_recording")

    def __init__(self, recorder, rank: int, name: str,
                 category=None, metrics=None,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self._rec = recorder
        self.rank = rank
        self.name = name
        self.category = category
        self.metrics = metrics
        self._attrs = attrs
        self.start = 0.0
        self._depth = 0
        self._recording = False

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (shown in exports); chainable."""
        if self._attrs is None:
            self._attrs = attrs
        else:
            self._attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        rec = self._rec
        self.start = rec._clock()
        self._recording = rec.enabled
        if self._recording:
            depths = rec._depth
            self._depth = depths.get(self.rank, 0)
            depths[self.rank] = self._depth + 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._rec
        end = rec._clock()
        if self.category is not None and self.metrics is not None:
            self.metrics.charge(self.category, end - self.start)
        if self._recording:
            rec._depth[self.rank] = self._depth
            attrs = self._attrs
            rec._spans.append(SpanRecord(
                self.rank, self.name, self.start, end, self._depth,
                freeze_attrs(attrs) if attrs else ()))
        return False
