"""Spans recorded from outside ``src/``: timing wrappers around the
layer seams, and the per-layer numbers derived from them.

A span is ``[name, t0, t1, parent, value]`` (``parent`` is an index into
the same list, ``-1`` for an op's root; ``value`` carries the one count
a seam reports — batch width or engine events).  Spans stay in memory
and are written once, by the round process, when its ops are done.  A
layer's self time is its span minus what its child spans cover; the
code under test is single-threaded, so children never overlap.

The wrappers are installed only around traced ops and removed again,
so the untraced ops interleaved with them run unpatched code.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List

import repro.core.base as core_base
from repro.sim.cluster import Cluster
from repro.storage import BlockStore

NAME, T0, T1, PARENT, VALUE = range(5)

#: Batches of at most this many lines take the scalar-round path.
SMALL_BATCH = 4


class SpanLog:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self) -> None:
        self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             value: Callable[..., float] = None) -> Callable:
        """``fn`` timed as a span; ``value(args, result)`` fills the
        span's count."""
        clock = time.perf_counter

        def timed(*args, **kwargs):
            span = self.open(name)
            span[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = clock()
                self.close()
            if value is not None:
                span[VALUE] = value(args, result)
            return result

        return timed

    def add(self, name: str, t0: float, t1: float, parent: int,
            adopt: bool = False) -> int:
        """A span timed by the harness itself.  With ``adopt`` it takes
        over the parent's children that lie inside it."""
        index = len(self.spans)
        self.spans.append([name, t0, t1, parent, 0])
        if adopt:
            for span in self.spans[parent + 1:index]:
                if span[PARENT] == parent and t0 <= span[T0] \
                        and span[T1] <= t1:
                    span[PARENT] = index
        return index


def install(log: SpanLog) -> Callable[[], None]:
    """Patch the five seams; returns the function that restores them."""
    saved = (core_base.advance_pool, core_base.BlockPool,
             core_base.Worker._pool_for, BlockStore.load, Cluster.run)
    core_base.advance_pool = log.wrap(
        "advance_pool", saved[0], lambda args, _: len(args[0]))
    core_base.BlockPool = log.wrap("BlockPool", saved[1])
    core_base.Worker._pool_for = log.wrap("Worker._pool_for", saved[2])
    BlockStore.load = log.wrap("BlockStore.load", saved[3])
    Cluster.run = log.wrap(
        "Cluster.run", saved[4],
        lambda args, _: args[0].engine.event_count)

    def restore() -> None:
        (core_base.advance_pool, core_base.BlockPool,
         core_base.Worker._pool_for, BlockStore.load, Cluster.run) = saved

    return restore


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span wrapper adds to a call: best of ``repeats``
    timings on a no-op (the host only ever adds time)."""
    def bare() -> None:
        return None

    log = SpanLog()
    wrapped = log.wrap("noop", bare, lambda args, result: 0)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        del log.spans[:]
        log.open("op")
        t0 = clock()
        for _ in range(calls):
            bare()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        log.close()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(0.0, best) / calls


class TelemetrySink:
    """List-backed ``telemetry=`` sink; stamps each executor event on
    receipt with the clock the spans use."""

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append((time.perf_counter(), event))


def _totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds and self seconds."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[T1] - span[T0]
    out: Dict[str, Dict[str, float]] = {}
    for span, cover in zip(spans, covered):
        row = out.setdefault(span[NAME], {"n": 0, "total": 0.0, "self": 0.0})
        duration = span[T1] - span[T0]
        row["n"] += 1
        row["total"] += duration
        row["self"] += duration - cover
    return out


def run_layers(spans: List[list], out) -> Dict[str, float]:
    """Per-layer numbers of one traced run-workload op."""
    t = _totals(spans)
    zero = {"n": 0, "total": 0.0, "self": 0.0}
    advance, builds, lookups, loads, cluster, driver = (
        t.get(name, zero) for name in (
            "advance_pool", "BlockPool", "Worker._pool_for",
            "BlockStore.load", "Cluster.run", "run_streamlines"))
    widths = [s[VALUE] for s in spans if s[NAME] == "advance_pool"]
    events = sum(s[VALUE] for s in spans if s[NAME] == "Cluster.run")
    m = {
        "storage.block_loads": loads["n"],
        "storage.load_s": loads["total"],
        "integrate.steps": out.steps,
        "integrate.advance_calls": advance["n"],
        "integrate.batch_width_p50": statistics.median(widths),
        "integrate.small_batch_frac":
            sum(w <= SMALL_BATCH for w in widths) / len(widths),
        "integrate.advance_s": advance["total"],
        "integrate.us_per_step": 1e6 * advance["total"] / out.steps,
        "integrate.pool_builds": builds["n"],
        "integrate.pool_build_s": builds["total"],
        "core.pool_lookups": lookups["n"],
        "core.pool_hit_ratio": 1.0 - builds["n"] / lookups["n"],
        "core.pool_lookup_self_s": lookups["self"],
        "core.block_efficiency": out.counts["block_efficiency"],
        "core.driver_self_s": driver["self"],
        "sim.events": events,
        "sim.msgs": out.counts["msgs"],
        "sim.msg_bytes": out.counts["msg_bytes"],
        "core-sim.self_s": cluster["self"],
        "core-sim.us_per_event": 1e6 * cluster["self"] / events,
        "trace.spans": len(spans),
    }
    for phase in ("analyze", "export", "reload", "lineage"):
        if f"obs.{phase}" in t:
            m[f"obs.{phase}_s"] = t[f"obs.{phase}"]["total"]
    for count in ("spans", "samples", "artifact_bytes"):
        if count in out.counts:
            m[f"obs.{count}"] = out.counts[count]
    return m


def add_sweep_spans(log: SpanLog, sink: TelemetrySink, out,
                    parent: int) -> None:
    """One ``exec.run`` span per spec from the ``start``/``finish``
    events, under the ``SweepExecutor.run`` span.  The worker's host
    phases (``RunOutcome.host``) become its children, laid back to back
    so that the last one ends at the ``finish`` event."""
    started: Dict[str, float] = {}
    finished: Dict[str, float] = {}
    for stamp, event in sink.events:
        if event["event"] == "start":
            started[event["run"]] = stamp
        elif event["event"] == "finish":
            finished[event["run"]] = stamp
    for outcome in out.outcomes:
        name = outcome.spec.name
        if name not in started or name not in finished:
            continue
        run = log.add("exec.run", started[name], finished[name], parent)
        phases = list((outcome.host or {}).get("phases", {}).items())
        end = finished[name]
        for label, stats in reversed(phases):
            log.add(f"exec.run.{label}", end - stats["wall_s"], end, run)
            end -= stats["wall_s"]


def sweep_layers(spans: List[list], sink: TelemetrySink, out,
                 slots: int) -> Dict[str, float]:
    """Per-layer numbers of one traced sweep op."""
    kinds = [event["event"] for _, event in sink.events]
    entry = out.phases["SweepExecutor.run"]
    first_start = min(stamp for stamp, event in sink.events
                      if event["event"] == "start")
    acquire = first_start - entry[0]
    elapsed = sum(o.elapsed for o in out.outcomes)
    wall = entry[1] - entry[0]
    merge = out.phases["exec.merge"]
    return {
        "integrate.steps": out.steps,
        "obs.analyze_s": sum(
            (o.host or {}).get("phases", {}).get("merge", {}).get("wall_s",
                                                                  0.0)
            for o in out.outcomes),
        "exec.runs": kinds.count("retire"),
        "exec.retries": kinds.count("requeue") + kinds.count("node_lost"),
        "exec.acquire_s": acquire,
        "exec.run_elapsed_sum_s": elapsed,
        "exec.overhead_s": (out.span[1] - out.span[0]) - elapsed / slots,
        "exec.slot_idle_frac": 1.0 - elapsed / (slots * (wall - acquire)),
        "exec.merge_s": merge[1] - merge[0],
        "trace.spans": len(spans),
    }
