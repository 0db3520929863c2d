"""Span primitives: named begin/end intervals on the simulated clock.

A span scopes one operation of one rank — a block load, an assignment
pass.  Spans are the observability layer's basic unit:
the Perfetto exporter turns them into timeline slices and the per-rank
Gantt renderer buckets them.

Spans are created through :meth:`repro.obs.recorder.Recorder.span` (or
the :func:`repro.obs.span` convenience wrapper over a ``RankContext``)
and used as context managers inside simulator coroutines::

    with span(ctx, "io.load_block", block=block_id):
        yield from ctx.read_block_bytes(nbytes)

Simulated time passes at the ``yield`` points inside the ``with`` block,
so ``end - start`` measures simulated (not host) duration.

A :class:`Span` only records: a disabled recorder hands out the shared
:data:`NULL_SPAN` instead, so the disabled path allocates nothing.  The
simulator's timers (compute, I/O, communication) are not spans; they
read the clock around their ``Sleep`` and call
:meth:`~repro.obs.recorder.Recorder.charge`, which charges the timer
always and appends a :class:`SpanRecord` from the same two readings
when recording.
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
    """A live (open) recording span; create via ``Recorder.span`` (only
    an enabled recorder makes one), use as a context manager."""

    __slots__ = ("_rec", "rank", "name", "_attrs", "start", "_depth")

    def __init__(self, recorder, rank: int, name: str,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self._rec = recorder
        self.rank = rank
        self.name = name
        self._attrs = attrs
        self.start = 0.0
        self._depth = 0

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
        depths = rec._depth
        self._depth = depths.get(self.rank, 0)
        depths[self.rank] = self._depth + 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._rec
        rec._depth[self.rank] = self._depth
        attrs = self._attrs
        rec._spans.append(SpanRecord(
            self.rank, self.name, self.start, rec._clock(), self._depth,
            freeze_attrs(attrs) if attrs else ()))
        return False
