"""The per-run observability hub.

One :class:`Recorder` per simulated run bundles the three stores the
exporters consume — completed spans, the metrics registry (with its
sampled time series), and per-rank wait-state totals — and implements
the engine observer protocol that feeds two of them:

``on_wait_end(process, reason, start, end)``
    Called when a process resumes from a ``Wait``; attributes the
    blocked interval to a named wait state and records it as a
    ``wait.<reason>`` span (so idle shows up on the Perfetto timeline).

``on_time_advance(now)``
    Called by the engine loop whenever the simulated clock advances to a
    new event; samples every registered gauge series each time the clock
    crosses a ``sample_interval`` boundary.  Sampling piggybacks on the
    event loop instead of scheduling its own timer events so that
    enabling observability cannot extend the run (a trailing timer event
    would advance the final clock) or reorder it (extra events would
    shift tie-breaking sequence numbers): a traced run and an untraced
    run execute the identical schedule.

A disabled ``Recorder`` still carries the timers: :meth:`Recorder.charge`
feeds ``RankMetrics`` whether or not it records, and only an enabled
recorder turns the same interval into a span.  The engine observer is
only installed when the recorder is enabled, so the disabled per-event
overhead is zero.

Real machine time is not the recorder's business: it is measured by a
:class:`~repro.obs.host.HostProbe`, which needs no recorder at all.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.span import NULL_SPAN, Span, SpanRecord, freeze_attrs
from repro.obs.waitstate import WAIT_DEFAULT, WaitStates


class Recorder:
    """Collects spans, samples, and wait states for one simulated run.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled recorders charge timers
        (:meth:`charge`) but record nothing and install no engine hooks.
    sample_interval:
        Simulated seconds between gauge samples (``None`` or ``<= 0``
        disables sampling).
    clock:
        Simulated-clock callable; normally bound to ``engine.now`` by
        :meth:`bind` (which ``Cluster`` calls).
    """

    def __init__(self, enabled: bool = False,
                 sample_interval: Optional[float] = 0.25,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self.sample_interval = sample_interval
        self._clock = clock or (lambda: 0.0)
        self._spans: List[SpanRecord] = []
        self._depth: Dict[int, int] = {}
        self.registry = MetricsRegistry(enabled=enabled)
        self.waits = WaitStates()
        self._next_sample = 0.0

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def span(self, rank: int, name: str, **attrs: Any):
        """Open a recording span for ``rank`` (use as a context manager);
        a disabled recorder returns the shared
        :data:`~repro.obs.span.NULL_SPAN`."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, rank, name, attrs=attrs or None)

    def charge(self, rank: int, name: str, category, metrics,
               start: float, end: float,
               attrs: Optional[Dict[str, Any]] = None) -> None:
        """Charge one timed interval of ``rank`` and, when recording,
        keep it as a span.

        The simulator's timer sites read the clock before their
        ``Sleep`` and call this in a ``finally`` with a second reading,
        so ``metrics.charge(category, end - start)`` runs whether or not
        the recorder is enabled (and even when the process is closed
        mid-``Sleep``).  The recorded span takes the rank's current
        nesting depth; ``attrs`` is recording-only (sites build it under
        ``if obs.enabled``).
        """
        metrics.charge(category, end - start)
        if self.enabled:
            self._spans.append(SpanRecord(
                rank, name, start, end, self._depth.get(rank, 0),
                freeze_attrs(attrs) if attrs else ()))

    def marker(self, rank: int, name: str, **attrs: Any) -> None:
        """Record a zero-duration span at the current simulated time.

        Markers are pure provenance (e.g. the ``seed.own`` / ``seed.release``
        / ``seed.term`` streamline lifecycle events): they charge no timer,
        consume no simulated time, and are dropped entirely when the
        recorder is disabled, so emitting them cannot perturb the schedule.
        """
        if not self.enabled:
            return
        t = self._clock()
        self._spans.append(SpanRecord(
            rank, name, t, t, self._depth.get(rank, 0),
            freeze_attrs(attrs)))

    @property
    def spans(self) -> Tuple[SpanRecord, ...]:
        return tuple(self._spans)

    @property
    def open_span_count(self) -> int:
        """Spans entered but not yet exited (0 after a clean run)."""
        return sum(self._depth.values())

    # ------------------------------------------------------------------ #
    # Engine wiring
    # ------------------------------------------------------------------ #
    def bind(self, engine) -> None:
        """Attach to an engine: read its clock; hook it when enabled."""
        self._clock = lambda: engine.now
        if self.enabled:
            engine.observer = self

    # ------------------------------------------------------------------ #
    # Engine observer protocol
    # ------------------------------------------------------------------ #
    def on_wait_end(self, process, reason: Optional[str],
                    start: float, end: float) -> None:
        """A process resumed after blocking in ``Wait``."""
        if not self.enabled or end <= start:
            return
        rank = getattr(process, "rank", None)
        if rank is None:
            return
        reason = reason or WAIT_DEFAULT
        self.waits.add(rank, reason, end - start)
        self._spans.append(SpanRecord(
            rank, f"wait.{reason}", start, end, self._depth.get(rank, 0)))

    def on_time_advance(self, now: float) -> None:
        """The engine clock reached ``now``; sample gauges if due."""
        interval = self.sample_interval
        if not self.enabled or not interval or interval <= 0:
            return
        if now < self._next_sample:
            return
        self.registry.sample(now)
        self._next_sample = (math.floor(now / interval) + 1) * interval


#: Shared disabled recorder for code paths with no cluster.  It records
#: nothing and never reads its clock; :meth:`Recorder.charge` takes both
#: clock readings from its caller, so it still carries the timers.
NULL_RECORDER = Recorder(enabled=False)
