"""Metrics registry: counters, fixed-bucket histograms, and periodic
time-series sampling of callback gauges.

The registry complements :class:`~repro.sim.metrics.RankMetrics` (the
paper's end-of-run scalar totals) with *shape over time*: how deep was a
slave's mailbox when the master stalled, how full was the LRU cache when
purges began, how many bytes were in flight during the endgame.

Instruments are memoized by name, so instrumentation sites just write
``registry.counter("io.reads").inc()``.  A disabled registry hands back
shared null instruments whose methods are no-ops — but hot paths should
still guard with ``if obs.enabled:`` to avoid the name lookup entirely.

Time series: :meth:`MetricsRegistry.add_series` registers a callback
gauge (name, rank, zero-argument callable); :meth:`sample` reads every
registered series and appends ``(time, name, rank, value)`` rows.  The
engine drives sampling on a fixed simulated-time cadence (see
``Recorder.on_time_advance``); because callbacks only *read* simulation
state, sampling never perturbs the schedule, and registration order is
deterministic, so two identical runs produce bit-identical sample
streams.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets (ascending upper bounds).  Geometric-ish
#: coverage from sub-millisecond costs to multi-second block reads.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow slot.
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum",
                 "min", "max")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram buckets must be strictly "
                             f"ascending: {bounds}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.total = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        if self.total == 0:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimated ``q``-th percentile (``q`` in [0, 100]), or None on
        an empty histogram (a percentile of nothing is not 0.0 — callers
        must not mistake "no observations" for "all observations fast").

        Bucket-resolution estimate: linear interpolation inside the
        bucket where the cumulative count crosses ``q``, clamped to the
        observed [min, max] (so the overflow bucket and the coarse first
        bucket cannot report a value no observation reached).
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        if self.total == 0:
            return None
        target = q / 100.0 * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lo = self.buckets[i - 1] if i > 0 else self.min
                hi = self.buckets[i] if i < len(self.buckets) else self.max
                frac = (target - cumulative) / count
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
            cumulative += count
        return self.max

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / max (the analyzer's table row).

        Raises ValueError on an empty histogram: a summary row full of
        fabricated zeros would read as a real measurement downstream.
        """
        if self.total == 0:
            raise ValueError(
                f"histogram {self.name!r} has no observations — "
                "nothing to summarize")
        return {
            "count": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }

    def snapshot(self) -> Dict[str, Any]:
        """Stable-keyed dict view (used by the JSONL exporter)."""
        return {
            "name": self.name,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Name-keyed instrument store plus the sampled-series table."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Sampled series: (name, rank, callback), registration order.
        self._series: List[Tuple[str, int, Callable[[], float]]] = []
        #: Sample rows: (time, name, rank, value).
        self.samples: List[Tuple[float, str, int, float]] = []

    # ------------------------------------------------------------------ #
    # Instruments (memoized by name)
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets=buckets)
        return h

    # ------------------------------------------------------------------ #
    # Time series
    # ------------------------------------------------------------------ #
    def add_series(self, name: str, rank: int,
                   fn: Callable[[], float]) -> None:
        """Register one sampled gauge (``rank=-1`` for machine-wide)."""
        if not self.enabled:
            return
        self._series.append((name, rank, fn))

    @property
    def series_count(self) -> int:
        return len(self._series)

    def sample(self, now: float) -> None:
        """Read every registered series at simulated time ``now``."""
        if not self.enabled:
            return
        append = self.samples.append
        for name, rank, fn in self._series:
            append((now, name, rank, fn()))

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        return {name: h.snapshot()
                for name, h in sorted(self._histograms.items())}


#: Shared disabled registry for contexts with no observability wired.
NULL_REGISTRY = MetricsRegistry(enabled=False)
