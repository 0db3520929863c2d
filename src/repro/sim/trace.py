"""Lightweight structured event trace.

Algorithms emit trace records ("rank 3 loaded block 17 at t=0.42") through a
:class:`Trace`.  Tracing is off by default — and hot emit sites guard with
``if trace.enabled:`` so the disabled path costs one attribute read and
builds no kwargs.  Code paths that run without a caller-supplied trace
share the module-level :data:`NULL_TRACE` singleton instead of allocating
a disabled ``Trace`` each time.  Tests use traces to assert protocol
properties (e.g. a Static Allocation rank never loads a block it does not
own); the experiment harness and the ``repro trace`` CLI can dump traces
as JSONL (:meth:`Trace.to_jsonl` / :meth:`Trace.from_jsonl`) or feed them
to the Perfetto exporter as instant events.
"""

from __future__ import annotations

import json
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

from repro.obs.export import plain, write_jsonl
from repro.obs.span import freeze_attrs


class TraceRecord(NamedTuple):
    """One trace event."""

    time: float
    rank: int
    event: str
    detail: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict view; numpy scalars/arrays in the detail are
        coerced to plain Python values."""
        d: Dict[str, Any] = {"time": plain(self.time), "rank": self.rank,
                             "event": self.event}
        for k, v in self.detail:
            d[k] = plain(v)
        return d


class Trace:
    """Collects :class:`TraceRecord` objects when enabled."""

    def __init__(self, enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self._clock = clock or (lambda: 0.0)
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def emit(self, rank: int, event: str, **detail: Any) -> None:
        """Record an event (no-op unless enabled)."""
        if not self.enabled:
            return
        self._records.append(TraceRecord(
            self._clock(), rank, event, freeze_attrs(detail)))

    def select(self, event: Optional[str] = None,
               rank: Optional[int] = None) -> List[TraceRecord]:
        """Filter records by event name and/or rank."""
        out = []
        for r in self._records:
            if event is not None and r.event != event:
                continue
            if rank is not None and r.rank != rank:
                continue
            out.append(r)
        return out

    def counts(self) -> Dict[str, int]:
        """Histogram of event names."""
        c: Dict[str, int] = {}
        for r in self._records:
            c[r.event] = c.get(r.event, 0) + 1
        return c

    # ------------------------------------------------------------------ #
    # JSONL round-trip
    # ------------------------------------------------------------------ #
    def to_jsonl(self, path) -> None:
        """Write one sorted-key JSON object per record, in emit order."""
        write_jsonl(path, (r.as_dict() for r in self._records))

    @classmethod
    def from_jsonl(cls, path) -> "Trace":
        """Load a trace dumped by :meth:`to_jsonl`.

        The result is disabled (it is a historical record, not a live
        sink); ``select``/``counts``/iteration work as usual.
        """
        trace = cls(enabled=False)
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                d = json.loads(line)
                detail = tuple(sorted(
                    (k, v) for k, v in d.items()
                    if k not in ("time", "rank", "event")))
                trace._records.append(TraceRecord(
                    time=d["time"], rank=d["rank"], event=d["event"],
                    detail=detail))
        return trace


#: Shared disabled trace for code paths with no caller-supplied trace.
#: Its clock is never rebound (``Cluster`` only binds clocks on traces
#: the caller passed in), so sharing it globally is safe.
NULL_TRACE = Trace(enabled=False)
