"""Post-run trace analytics: critical path, imbalance, handoff pathologies.

PR 1's recorder answers *what happened when*; this module turns that raw
signal into the paper's §5 questions — where does the wall clock go for
each algorithm, and why does Hybrid win?  Three analyses:

**Critical path** (:func:`critical_path`): a greedy backward walk from
the end of the run over the leaf activity spans.  At any moment the walk
sits on one rank; it consumes that rank's busy span back to its start,
hops to whichever rank was busy when the current one was blocked (the
dependency that gated progress), and emits an *idle* segment only when
no rank was busy at all (message latency, drain).  The result is a
contiguous chain of segments tiling ``[0, wall]`` — so the per-kind
breakdown (compute / io / comm / idle) sums to the wall clock exactly —
attributing end-to-end time rather than rank-seconds (Yenpure et al.'s
advection cost taxonomy, applied to the run's longest chain).

**Imbalance** (:func:`imbalance_stats`): max/mean busy time (the
slowdown factor a perfectly balanced run would remove), the Gini
coefficient of advection steps per rank (0 = equal work, →1 = one rank
did everything), and idle fraction.

**Participation & ping-pong**: Wang et al.'s parallelize-over-data
diagnostics.  Participation ratio = fraction of ranks that advected at
all; ping-pong count = handoffs where a streamline re-entered a rank it
had already visited (its geometry shipped back to a rank that already
paid for it).  Both are accumulated by ``Worker.own_line`` during the
run; the analyzer just reads the counters.

This is a leaf module like the rest of ``repro.obs``: inputs are
duck-typed (anything with ``wall_clock`` / ``rank_metrics`` /
``master_ranks``) or plain JSONL artifacts from a ``repro trace``
output directory, so no simulator import cycles arise.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.lineage import seed_episodes, seed_latency_summary
from repro.obs.registry import Histogram
from repro.obs.span import SpanRecord, freeze_attrs

#: Critical-path segment kinds, in reporting order.
SEGMENT_KINDS = ("compute", "io", "comm", "idle")

#: Leaf span prefixes -> segment kind; first match wins.  Container
#: spans (``io.load_block``, ``master.assign_pass``, ...) are excluded —
#: they would double-cover their children (same rule as the Gantt
#: renderer).  ``wait.*`` spans are recorded idle attribution; the walk
#: derives idle from busy coverage instead, so they map to None here.
_LEAF_KINDS = (
    ("compute.", "compute"),
    ("io.read", "io"),
    ("comm.", "comm"),
)

#: ``run.json`` schema version (bump on breaking layout changes).
RUN_SCHEMA = 1


@lru_cache(maxsize=256)
def leaf_kind(name: str) -> Optional[str]:
    """Busy-segment kind for a span name, or None for containers/waits.

    A run has a dozen distinct span names and tens of thousands of
    spans, so the prefix chain runs once per name (bounded table)."""
    for prefix, kind in _LEAF_KINDS:
        if name.startswith(prefix):
            return kind
    return None


@dataclass(frozen=True)
class Segment:
    """One hop of the critical path: ``rank`` gated progress as ``kind``
    over ``[start, end]``."""

    start: float
    end: float
    rank: int
    kind: str

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------- #
# Critical path
# ---------------------------------------------------------------------- #

class _RankIndex:
    """Busy leaf spans of one rank, bisectable by start and end.

    Leaf busy spans of a rank never overlap (they tile its busy time), so
    "the span covering t" is simply the last span starting before t —
    if its end reaches t."""

    __slots__ = ("starts", "ends", "spans")

    def __init__(self, spans: List[Tuple[float, float, str]]) -> None:
        spans.sort(key=lambda s: (s[0], s[1]))
        self.spans = spans
        self.starts = [s[0] for s in spans]
        self.ends = [s[1] for s in spans]

    def covering(self, t: float, tol: float
                 ) -> Optional[Tuple[float, float, str]]:
        """The busy span with ``start < t - tol <= end``, if any."""
        i = bisect.bisect_left(self.starts, t - tol) - 1
        if i < 0:
            return None
        span = self.spans[i]
        return span if span[1] >= t - tol else None

    def last_end_at_or_before(self, t: float, tol: float
                              ) -> Optional[Tuple[float, float, str]]:
        """The busy span with the latest ``end <= t + tol``, if any."""
        i = bisect.bisect_right(self.ends, t + tol) - 1
        return self.spans[i] if i >= 0 else None


def critical_path(spans: Sequence[Any], wall_clock: float
                  ) -> List[Segment]:
    """Walk the span graph backward from ``wall_clock`` to 0.

    ``spans`` is any sequence of objects with ``rank``/``name``/
    ``start``/``end`` (live :class:`SpanRecord` or the JSONL round-trip).
    Returns contiguous segments whose durations sum to ``wall_clock``
    exactly (each iteration extends the covered interval down to the
    consumed span's start or the previous busy end; the final residue is
    emitted as idle).
    """
    if wall_clock <= 0:
        return []
    tol = wall_clock * 1e-12
    per_rank: Dict[int, List[Tuple[float, float, str]]] = {}
    for s in spans:
        kind = leaf_kind(s.name)
        # Spans shorter than the tolerance cannot pass the cover test
        # (start < t - tol <= end) and would stall the walk; no simulated
        # cost is that small, so dropping them loses nothing.
        if kind is None or s.end - s.start <= 2 * tol:
            continue
        per_rank.setdefault(s.rank, []).append((s.start, s.end, kind))
    if not per_rank:
        return [Segment(0.0, wall_clock, -1, "idle")]
    index = {rank: _RankIndex(spans) for rank, spans in per_rank.items()}
    ranks = sorted(index)

    segments: List[Segment] = []

    def emit(start: float, end: float, rank: int, kind: str) -> None:
        if end > start:
            segments.append(Segment(start=start, end=end, rank=rank,
                                    kind=kind))

    def busy_covering(t: float) -> Optional[Tuple[int, float, float, str]]:
        """Rank busy at ``t`` — latest-starting span wins (it is the most
        recent dependency), ties to the lowest rank."""
        best = None
        best_key = None
        for rank in ranks:
            span = index[rank].covering(t, tol)
            if span is None:
                continue
            key = (span[0], -rank)
            if best_key is None or key > best_key:
                best, best_key = (rank, *span), key
        return best

    def last_busy(t: float) -> Optional[Tuple[int, float, float, str]]:
        """The busy span ending latest at/before ``t`` across all ranks."""
        best = None
        best_key = None
        for rank in ranks:
            span = index[rank].last_end_at_or_before(t, tol)
            if span is None:
                continue
            key = (span[1], span[0], -rank)
            if best_key is None or key > best_key:
                best, best_key = (rank, *span), key
        return best

    t = wall_clock
    cur: Optional[int] = None
    # Each iteration either consumes time (strictly decreasing t) or hops
    # rank at fixed t at most once before consuming; the guard is a
    # backstop against degenerate span data, not a tuning knob.
    for _ in range(4 * sum(len(v) for v in per_rank.values()) + 16):
        if t <= tol:
            break
        span = index[cur].covering(t, tol) if cur is not None else None
        if span is not None:
            start, _, kind = span
            emit(max(0.0, start), t, cur, kind)
            t = max(0.0, start)
            continue
        hop = busy_covering(t)
        if hop is not None:
            cur = hop[0]
            continue
        prev = last_busy(t)
        if prev is None:
            emit(0.0, t, cur if cur is not None else -1, "idle")
            t = 0.0
            break
        rank, start, end, kind = prev
        if end < t - tol:
            # Nobody busy over (end, t]: idle on the critical path
            # (message latency, drain tail), then resume on the rank
            # whose activity ended it.
            emit(end, t, cur if cur is not None else rank, "idle")
            t = end
            cur = rank
        else:
            # Backstop for degenerate data (a span ending within tol of
            # t that the cover test rejected): consume it directly so
            # the walk always progresses.
            emit(max(0.0, start), t, rank, kind)
            t = max(0.0, start)
            cur = rank
    if t > tol:
        emit(0.0, t, cur if cur is not None else -1, "idle")
    segments.reverse()
    return segments


def path_breakdown(segments: Sequence[Segment]) -> Dict[str, float]:
    """Seconds per segment kind (keys = :data:`SEGMENT_KINDS`)."""
    out = {kind: 0.0 for kind in SEGMENT_KINDS}
    for seg in segments:
        out[seg.kind] = out.get(seg.kind, 0.0) + seg.duration
    return out


# ---------------------------------------------------------------------- #
# Imbalance
# ---------------------------------------------------------------------- #

def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = one
    holder).  Zero-total samples are perfectly equal by convention."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n == 0:
        return 0.0
    total = sum(vals)
    if total <= 0:
        return 0.0
    weighted = sum((i + 1) * v for i, v in enumerate(vals))
    return (2.0 * weighted) / (n * total) - (n + 1) / n


def imbalance_stats(rank_rows: Sequence[Mapping[str, Any]],
                    wall_clock: float) -> Dict[str, float]:
    """Load-imbalance metrics from per-rank metric dicts
    (``RankMetrics.as_dict`` rows)."""
    if not rank_rows:
        return {"busy_max": 0.0, "busy_mean": 0.0, "imbalance_factor": 1.0,
                "gini_steps": 0.0, "idle_fraction": 0.0}
    busy = [r["compute_time"] + r["io_time"] + r["comm_time"]
            + r["other_time"] for r in rank_rows]
    steps = [r["steps"] for r in rank_rows]
    busy_max = max(busy)
    busy_mean = sum(busy) / len(busy)
    idle_fraction = 0.0
    if wall_clock > 0:
        idle_fraction = 1.0 - busy_mean / wall_clock
    return {
        "busy_max": busy_max,
        "busy_mean": busy_mean,
        "imbalance_factor": busy_max / busy_mean if busy_mean > 0 else 1.0,
        "gini_steps": gini(steps),
        "idle_fraction": max(0.0, idle_fraction),
    }


# ---------------------------------------------------------------------- #
# Block efficiency over time
# ---------------------------------------------------------------------- #

def block_efficiency_series(samples: Sequence[Tuple[float, str, int, float]]
                            ) -> List[Tuple[float, float]]:
    """``(time, E)`` trajectory from the run-wide cumulative
    ``run.blocks_loaded`` / ``run.blocks_purged`` gauge series."""
    loaded: Dict[float, float] = {}
    purged: Dict[float, float] = {}
    for time, name, rank, value in samples:
        if rank != -1:
            continue
        if name == "run.blocks_loaded":
            loaded[time] = value
        elif name == "run.blocks_purged":
            purged[time] = value
    out = []
    for time in sorted(loaded):
        n_loaded = loaded[time]
        n_purged = purged.get(time, 0.0)
        e = 1.0 if n_loaded <= 0 else (n_loaded - n_purged) / n_loaded
        out.append((time, e))
    return out


# ---------------------------------------------------------------------- #
# The full analysis
# ---------------------------------------------------------------------- #

@dataclass
class RunAnalysis:
    """Everything ``repro analyze`` reports about one run."""

    algorithm: str
    status: str
    n_ranks: int
    wall_clock: float
    master_ranks: List[int]
    segments: List[Segment]
    critical_path: Dict[str, float]
    imbalance: Dict[str, float]
    participation_ratio: float
    lines_received: int
    pingpong_count: int
    block_efficiency: List[Tuple[float, float]]
    #: span category -> Histogram.summary() row (count/mean/p50/p95/max).
    span_summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: rank -> wait reason -> seconds (as recorded; empty when unknown).
    waits: Dict[int, Dict[str, float]] = field(default_factory=dict)
    rank_rows: List[Dict[str, Any]] = field(default_factory=list)
    #: count/mean/p50/p95/max of per-seed birth->termination latency.
    #: None when the trace predates per-streamline provenance (no
    #: ``seed.*`` markers) — consumers must treat that as "unavailable".
    seed_latency: Optional[Dict[str, float]] = None

    @property
    def path_total(self) -> float:
        return sum(self.critical_path.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready stable view (consumed by ``repro diff``)."""
        io_time = sum(r.get("io_time", 0.0) for r in self.rank_rows)
        comm_time = sum(r.get("comm_time", 0.0) for r in self.rank_rows)
        compute = sum(r.get("compute_time", 0.0) for r in self.rank_rows)
        loaded = sum(r.get("blocks_loaded", 0) for r in self.rank_rows)
        purged = sum(r.get("blocks_purged", 0) for r in self.rank_rows)
        out = {
            "schema": RUN_SCHEMA,
            "algorithm": self.algorithm,
            "status": self.status,
            "n_ranks": self.n_ranks,
            "wall_clock": self.wall_clock,
            "io_time": io_time,
            "comm_time": comm_time,
            "compute_time": compute,
            "block_efficiency": (1.0 if loaded <= 0
                                 else (loaded - purged) / loaded),
            "critical_path": {k: self.critical_path.get(k, 0.0)
                              for k in SEGMENT_KINDS},
            "imbalance": dict(self.imbalance),
            "participation_ratio": self.participation_ratio,
            "lines_received": self.lines_received,
            "pingpong_count": self.pingpong_count,
            "block_efficiency_series": [[t, e]
                                        for t, e in self.block_efficiency],
            "span_summaries": {k: dict(v)
                               for k, v in sorted(self.span_summaries.items())},
        }
        if self.seed_latency is not None:
            out["seed_latency"] = dict(self.seed_latency)
        return out


def _span_duration_summaries(spans: Sequence[Any]) -> Dict[str, Dict[str, float]]:
    """Histogram summaries of leaf busy-span durations per kind."""
    hists: Dict[str, Histogram] = {}
    for s in spans:
        kind = leaf_kind(s.name)
        if kind is None:
            continue
        h = hists.get(kind)
        if h is None:
            h = hists[kind] = Histogram(f"span.{kind}")
        h.observe(s.end - s.start)
    return {kind: h.summary() for kind, h in hists.items()}


def analyze(run: Mapping[str, Any], spans: Sequence[Any],
            samples: Sequence[Tuple[float, str, int, float]]
            ) -> RunAnalysis:
    """Core entry point over plain data (see the adapters below).

    ``run`` carries ``algorithm``/``status``/``n_ranks``/``wall_clock``/
    ``master_ranks``/``ranks`` (per-rank metric dicts) and optional
    ``waits``.
    """
    wall = float(run["wall_clock"])
    rank_rows = list(run.get("ranks", []))
    segments = critical_path(spans, wall)
    n_ranks = int(run["n_ranks"])
    participating = sum(1 for r in rank_rows if r.get("steps", 0) > 0)
    return RunAnalysis(
        algorithm=str(run["algorithm"]),
        status=str(run.get("status", "ok")),
        n_ranks=n_ranks,
        wall_clock=wall,
        master_ranks=[int(r) for r in run.get("master_ranks", [])],
        segments=segments,
        critical_path=path_breakdown(segments),
        imbalance=imbalance_stats(rank_rows, wall),
        participation_ratio=participating / n_ranks if n_ranks else 0.0,
        lines_received=sum(int(r.get("lines_received", 0))
                           for r in rank_rows),
        pingpong_count=sum(int(r.get("pingpong_arrivals", 0))
                           for r in rank_rows),
        block_efficiency=block_efficiency_series(samples),
        span_summaries=_span_duration_summaries(spans),
        waits={int(k): dict(v) for k, v in run.get("waits", {}).items()},
        rank_rows=rank_rows,
        seed_latency=seed_latency_summary(seed_episodes(spans)),
    )


def analyze_run(result: Any, obs: Any) -> RunAnalysis:
    """Analyze a live run: a ``RunResult``-like object plus its
    ``Recorder`` (duck-typed; no core/sim imports)."""
    run = {
        "algorithm": result.algorithm,
        "status": result.status,
        "n_ranks": result.n_ranks,
        "wall_clock": result.wall_clock,
        "master_ranks": list(getattr(result, "master_ranks", [])),
        "ranks": [m.as_dict() for m in result.rank_metrics],
        "waits": {m.rank: obs.waits.of(m.rank)
                  for m in result.rank_metrics},
    }
    return analyze(run, obs.spans, obs.registry.samples)


# ---------------------------------------------------------------------- #
# Artifact loading (the ``repro analyze <trace-dir>`` path)
# ---------------------------------------------------------------------- #

#: The per-line decoder of the JSONL loaders (``json.loads`` re-checks its
#: keyword arguments on every call).
_decode = json.JSONDecoder().decode


def load_spans_jsonl(path) -> List[SpanRecord]:
    """Re-hydrate ``spans.jsonl`` into :class:`SpanRecord` objects."""
    spans: List[SpanRecord] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = _decode(line)
            spans.append(SpanRecord(
                d["rank"], d["name"], d["start"], d["end"],
                d.get("depth", 0), freeze_attrs(d.get("attrs", {}))))
    return spans


def load_samples_jsonl(path) -> List[Tuple[float, str, int, float]]:
    """Re-hydrate ``samples.jsonl`` into the registry's row tuples."""
    rows: List[Tuple[float, str, int, float]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = _decode(line)
            rows.append((d["time"], d["name"], d["rank"], d["value"]))
    return rows


def analyze_dir(trace_dir) -> RunAnalysis:
    """Analyze a ``repro trace`` output directory (``run.json`` +
    ``spans.jsonl`` + ``samples.jsonl``)."""
    trace_dir = Path(trace_dir)
    run_path = trace_dir / "run.json"
    if not run_path.is_file():
        raise FileNotFoundError(
            f"{run_path} not found — re-run `repro trace` (run.json is "
            "written since the analytics layer) or pass a directory "
            "containing run.json/spans.jsonl/samples.jsonl")
    run = json.loads(run_path.read_text())
    schema = run.get("schema")
    if schema != RUN_SCHEMA:
        raise ValueError(f"{run_path}: unsupported run.json schema "
                         f"{schema!r} (expected {RUN_SCHEMA})")
    spans_path = trace_dir / "spans.jsonl"
    samples_path = trace_dir / "samples.jsonl"
    spans = load_spans_jsonl(spans_path) if spans_path.is_file() else []
    samples = (load_samples_jsonl(samples_path)
               if samples_path.is_file() else [])
    return analyze(run, spans, samples)
