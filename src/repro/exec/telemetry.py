"""Executor telemetry: JSONL event log + utilization analytics.

When a :class:`~repro.exec.executor.SweepExecutor` is given a telemetry
sink, it logs one event per run-lifecycle transition, all emitted from
the parent scheduler loop (a single writer, so the log needs no
locking and lines never interleave):

``sweep_begin``
    once per ``run()`` call — ``jobs`` (pool width) and ``runs``
    (spec count);
``dispatch``
    a spec was popped off the pending queue and assigned a worker slot;
``start``
    its worker process started (or the inline call began);
``finish``
    the run's result arrived (or its timeout fired / its child died);
``retire``
    the outcome was merged into the results list — carries ``status``,
    ``elapsed`` (real seconds), and, when available, the child's
    ``host`` metric dict (:mod:`repro.obs.host`) piped back with the
    result;
``requeue``
    a *remote* worker died mid-run and the spec went back to the front
    of the pending queue (``attempt`` counts remote deaths so far;
    ``target`` says whether the retry stays remote or falls back to a
    local one-shot child);
``node_lost``
    a node became unreachable (at startup or mid-sweep) and its slots
    were dropped;
``sweep_end``
    the sweep drained.

All timestamps ``t`` are real seconds relative to ``sweep_begin``.
Distributed sweeps tag run events with a ``node`` identity (the
pseudo-node ``local`` for in-machine slots) and ``sweep_begin`` with
the per-node slot/speed summary.

A run's lifecycle is one or more **episodes**: every failed attempt is
``dispatch -> start -> requeue`` and the final one is ``dispatch ->
start -> finish -> retire`` — exactly one ``retire`` per run, so
retire-count == run count holds even under failover.  Worker slots are
released at ``retire``/``requeue``, so per-worker busy intervals never
overlap — the invariants :func:`validate_events` checks, together with
per-episode event ordering and worker consistency.

The analyzers turn an event list into the views that show how well
the dispatch order balanced the slots: a per-worker timeline
(:func:`worker_timeline_text`), a queue-depth curve
(:func:`queue_depth_table`), and an idle-fraction/utilization table
(:func:`utilization_table`).  Host event logs are never byte-stable;
they live outside BENCH snapshots and the deterministic sweep outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Recognized event kinds.
EVENT_KINDS = ("sweep_begin", "dispatch", "start", "finish", "retire",
               "requeue", "node_lost", "sweep_end")

#: Per-run lifecycle kinds grouped for validation.
_RUN_KINDS = ("dispatch", "start", "finish", "retire", "requeue")

#: A completed (final) episode; earlier episodes end in ``requeue``.
_FINAL_EPISODE = ("dispatch", "start", "finish", "retire")
_REQUEUED_EPISODE = ("dispatch", "start", "requeue")


class JsonlTelemetry:
    """Append-only JSONL telemetry sink (one event per line).

    Only the executor's parent process writes to it, one ``write`` call
    per event, so the file needs no locking.  Use as a context manager
    or call :meth:`close` after the sweep.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        if self.path.parent:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event: Mapping[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlTelemetry":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def load_events(path) -> List[Dict[str, Any]]:
    """Parse a telemetry ``events.jsonl`` file."""
    path = Path(path)
    events: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON ({exc})")
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: event is not an object")
            events.append(event)
    return events


def _split_episodes(seq: Sequence[Mapping[str, Any]]
                    ) -> List[List[Mapping[str, Any]]]:
    """Split one run's events at each ``dispatch`` (one episode per
    dispatch attempt)."""
    episodes: List[List[Mapping[str, Any]]] = []
    current: List[Mapping[str, Any]] = []
    for event in seq:
        if event["event"] == "dispatch" and current:
            episodes.append(current)
            current = []
        current.append(event)
    if current:
        episodes.append(current)
    return episodes


def validate_events(events: Sequence[Mapping[str, Any]]) -> List[str]:
    """Schema and invariant checks; returns problems (empty == valid).

    Checked: known event kinds with numeric non-negative ``t``; per-run
    episode structure — every non-final episode is ``dispatch -> start
    -> requeue`` (a remote worker death) and the final one ``dispatch
    -> start -> finish -> retire`` — with non-decreasing timestamps and
    a consistent worker id within each episode; retire count equals the
    announced run count (failover never loses or double-counts a run);
    every retire carries a ``status``; per-worker busy intervals do not
    overlap.
    """
    problems: List[str] = []
    announced: Optional[int] = None
    per_run: Dict[str, List[Mapping[str, Any]]] = {}
    for i, event in enumerate(events):
        kind = event.get("event")
        if kind not in EVENT_KINDS:
            problems.append(f"event {i}: unknown kind {kind!r}")
            continue
        t = event.get("t")
        if not isinstance(t, (int, float)) or t < 0:
            problems.append(f"event {i} ({kind}): bad timestamp {t!r}")
            continue
        if kind == "sweep_begin":
            announced = event.get("runs")
        if kind in _RUN_KINDS:
            run = event.get("run")
            if not isinstance(run, str) or not run:
                problems.append(f"event {i} ({kind}): missing run name")
                continue
            per_run.setdefault(run, []).append(event)

    retired = 0
    for run, seq in per_run.items():
        kinds = [e["event"] for e in seq]
        if kinds[0] != "dispatch":
            problems.append(f"run {run}: lifecycle starts with "
                            f"{kinds[0]!r}, not 'dispatch'")
            continue
        episodes = _split_episodes(seq)
        bad = False
        for n, episode in enumerate(episodes):
            final = n == len(episodes) - 1
            ep_kinds = tuple(e["event"] for e in episode)
            if final:
                # A truncated log (sweep interrupted mid-run) is a
                # valid prefix of the final episode.
                ok = ep_kinds == _FINAL_EPISODE[:len(ep_kinds)]
            else:
                ok = ep_kinds == _REQUEUED_EPISODE
            if not ok:
                expected = (_FINAL_EPISODE if final
                            else _REQUEUED_EPISODE)
                problems.append(f"run {run}: episode {n} lifecycle "
                                f"{list(ep_kinds)} != {list(expected)}")
                bad = True
                continue
            workers = {e.get("worker") for e in episode
                       if "worker" in e}
            if len(workers) > 1:
                problems.append(f"run {run}: episode {n} inconsistent "
                                f"worker ids {sorted(workers, key=str)}")
        if bad:
            continue
        times = [e["t"] for e in seq]
        if times != sorted(times):
            problems.append(f"run {run}: timestamps regress: {times}")
        if kinds[-1] == "retire":
            retired += 1
            if "status" not in seq[-1]:
                problems.append(f"run {run}: retire carries no status")
    if announced is not None and retired != announced:
        problems.append(f"retire count {retired} != announced run count "
                        f"{announced}")

    for worker, intervals in sorted(worker_intervals(events).items()):
        ordered = sorted(intervals, key=lambda iv: iv.start)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end - 1e-9:
                problems.append(
                    f"worker {worker}: overlapping runs {prev.run} "
                    f"[{prev.start:.3f},{prev.end:.3f}] and {cur.run} "
                    f"[{cur.start:.3f},{cur.end:.3f}]")
    return problems


# ---------------------------------------------------------------------- #
# Analyzers
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class WorkerInterval:
    """One run attempt's occupancy of one worker slot (start ->
    retire, or start -> requeue for a failed-over attempt)."""

    worker: int
    run: str
    start: float
    end: float
    status: str
    node: Optional[str] = None


def worker_intervals(events: Sequence[Mapping[str, Any]]
                     ) -> Dict[int, List[WorkerInterval]]:
    """``worker -> [interval]`` busy intervals.  An interval closes at
    the run's ``retire`` — or at a ``requeue``, which releases the slot
    of a died remote attempt (status ``requeue``)."""
    starts: Dict[str, Mapping[str, Any]] = {}
    out: Dict[int, List[WorkerInterval]] = {}
    for event in events:
        kind = event.get("event")
        run = event.get("run")
        if kind == "start":
            starts[run] = event
        elif kind in ("retire", "requeue") and run in starts:
            begin = starts.pop(run)
            worker = begin.get("worker", -1)
            status = ("requeue" if kind == "requeue"
                      else str(event.get("status", "?")))
            out.setdefault(worker, []).append(WorkerInterval(
                worker=worker, run=run, start=float(begin["t"]),
                end=float(event["t"]), status=status,
                node=begin.get("node")))
    return out


def makespan(events: Sequence[Mapping[str, Any]]) -> float:
    """Sweep duration: ``sweep_end`` time, else the last event's."""
    t_end = 0.0
    for event in events:
        t = event.get("t")
        if isinstance(t, (int, float)):
            t_end = max(t_end, float(t))
    return t_end


def utilization_table(events: Sequence[Mapping[str, Any]]) -> str:
    """Per-worker runs / busy / idle / idle-fraction table."""
    span = makespan(events)
    intervals = worker_intervals(events)
    if not intervals or span <= 0.0:
        return "(no completed runs in the event log)"
    header = (f"{'worker':>6}  {'runs':>5}  {'busy [s]':>10}  "
              f"{'idle [s]':>10}  {'idle %':>7}")
    lines = [header, "-" * len(header)]
    total_busy = 0.0
    for worker in sorted(intervals):
        busy = sum(iv.end - iv.start for iv in intervals[worker])
        total_busy += busy
        idle = max(0.0, span - busy)
        lines.append(f"{worker:>6d}  {len(intervals[worker]):>5d}  "
                     f"{busy:>10.3f}  {idle:>10.3f}  "
                     f"{idle / span * 100.0:>6.1f}%")
    n_workers = len(intervals)
    n_runs = sum(len(v) for v in intervals.values())
    lines.append("")
    lines.append(f"makespan {span:.3f} s; {n_runs} runs on {n_workers} "
                 f"worker slot(s); pool utilization "
                 f"{total_busy / (span * n_workers) * 100.0:.1f}%")
    waits = [e for e in events if e.get("event") == "start"]
    dispatches = {e.get("run"): e for e in events
                  if e.get("event") == "dispatch"}
    lags = [float(e["t"]) - float(dispatches[e["run"]]["t"])
            for e in waits if e.get("run") in dispatches]
    if lags:
        lines.append(f"mean dispatch->start lag {sum(lags) / len(lags):.3f} "
                     f"s over {len(lags)} run(s)")
    return "\n".join(lines)


#: Characters cycled per run so adjacent runs on one worker row are
#: visually distinct in the timeline.
_TIMELINE_GLYPHS = "#%@*+"


def worker_timeline_text(events: Sequence[Mapping[str, Any]],
                         width: int = 72) -> str:
    """Per-worker ASCII Gantt chart of the sweep ('.' = idle)."""
    span = makespan(events)
    intervals = worker_intervals(events)
    if not intervals or span <= 0.0:
        return "(no completed runs in the event log)"
    width = max(10, width)
    lines = [f"per-worker timeline (0 .. {span:.3f} s, {width} cols; "
             "'.' idle, one glyph per run):"]
    glyph_of: Dict[str, str] = {}
    for worker in sorted(intervals):
        row = ["."] * width
        for iv in sorted(intervals[worker], key=lambda iv: iv.start):
            glyph = glyph_of.setdefault(
                iv.run, _TIMELINE_GLYPHS[len(glyph_of)
                                         % len(_TIMELINE_GLYPHS)])
            lo = int(iv.start / span * width)
            hi = max(lo + 1, int(iv.end / span * width))
            for col in range(lo, min(hi, width)):
                row[col] = glyph
        lines.append(f"  w{worker:<3d} |{''.join(row)}|")
    legend = [f"{glyph}={run}" for run, glyph in glyph_of.items()]
    for i in range(0, len(legend), 3):
        lines.append("       " + "  ".join(legend[i:i + 3]))
    return "\n".join(lines)


def queue_depth_points(events: Sequence[Mapping[str, Any]]
                       ) -> List[Dict[str, float]]:
    """``(t, queued, running, done)`` sampled at every start/retire."""
    total = 0
    for event in events:
        if event.get("event") == "sweep_begin":
            total = int(event.get("runs") or 0)
    started = finished = 0
    points: List[Dict[str, float]] = [
        {"t": 0.0, "queued": total, "running": 0, "done": 0}]
    for event in events:
        kind = event.get("event")
        if kind == "start":
            started += 1
        elif kind == "retire":
            finished += 1
        else:
            continue
        points.append({"t": float(event.get("t", 0.0)),
                       "queued": max(0, total - started),
                       "running": started - finished,
                       "done": finished})
    return points


def queue_depth_table(events: Sequence[Mapping[str, Any]],
                      max_rows: int = 16) -> str:
    """The queue-depth curve as a compact table (down-sampled to at
    most ``max_rows`` transition points)."""
    points = queue_depth_points(events)
    if len(points) <= 1:
        return "(no queue transitions in the event log)"
    if len(points) > max_rows:
        step = (len(points) - 1) / (max_rows - 1)
        points = [points[round(i * step)] for i in range(max_rows)]
    header = f"{'t [s]':>8}  {'queued':>6}  {'running':>7}  {'done':>5}"
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(f"{p['t']:>8.3f}  {int(p['queued']):>6d}  "
                     f"{int(p['running']):>7d}  {int(p['done']):>5d}")
    return "\n".join(lines)


def node_table(events: Sequence[Mapping[str, Any]]) -> str:
    """Per-node slot/speed/runs/requeue/busy/utilization table for a
    distributed sweep (``--nodes``).

    Slots come from the ``sweep_begin`` node summary when present (so
    idle slots still count against utilization), else from the distinct
    workers observed per node.  Requeues are charged to the node whose
    worker died.
    """
    span = makespan(events)
    declared: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("event") == "sweep_begin":
            for entry in event.get("nodes") or []:
                if isinstance(entry, dict) and entry.get("node"):
                    declared[str(entry["node"])] = entry
    stats: Dict[str, Dict[str, Any]] = {}

    def bucket(node: str) -> Dict[str, Any]:
        return stats.setdefault(node, {"workers": set(), "runs": 0,
                                       "requeues": 0, "busy": 0.0})

    for intervals in worker_intervals(events).values():
        for iv in intervals:
            node = iv.node or "local"
            b = bucket(node)
            b["workers"].add(iv.worker)
            b["busy"] += iv.end - iv.start
            if iv.status == "requeue":
                b["requeues"] += 1
            else:
                b["runs"] += 1
    for event in events:
        if event.get("event") == "node_lost" and event.get("node"):
            bucket(str(event["node"]))  # show fully-lost nodes too
    if not stats or span <= 0.0:
        return "(no per-node activity in the event log)"
    header = (f"{'node':<12} {'slots':>5}  {'speed':>6}  {'runs':>5}  "
              f"{'requeues':>8}  {'busy [s]':>10}  {'util %':>7}")
    lines = ["per-node utilization", header, "-" * len(header)]
    for node in sorted(set(stats) | set(declared)):
        b = stats.get(node, {"workers": set(), "runs": 0,
                             "requeues": 0, "busy": 0.0})
        entry = declared.get(node, {})
        slots = int(entry.get("slots") or 0) or len(b["workers"]) or 1
        speed = entry.get("speed")
        speed_text = (f"{float(speed):.2f}"
                      if isinstance(speed, (int, float)) else "-")
        util = b["busy"] / (span * slots) * 100.0
        lines.append(f"{node:<12} {slots:>5d}  {speed_text:>6}  "
                     f"{b['runs']:>5d}  {b['requeues']:>8d}  "
                     f"{b['busy']:>10.3f}  {util:>6.1f}%")
    requeues = sum(b["requeues"] for b in stats.values())
    lost = [str(e.get("node")) for e in events
            if e.get("event") == "node_lost"]
    lines.append("")
    summary = (f"{len(stats)} node(s), {requeues} requeue(s)")
    if lost:
        summary += f"; lost: {', '.join(sorted(set(lost)))}"
    lines.append(summary)
    return "\n".join(lines)


def telemetry_report(events: Sequence[Mapping[str, Any]],
                     width: int = 72) -> str:
    """Utilization table + timeline + queue depth (+ the per-node table
    when the sweep ran distributed)."""
    sections = [
        utilization_table(events),
        worker_timeline_text(events, width=width),
        queue_depth_table(events),
    ]
    distributed = any(
        (e.get("node") not in (None, "local"))
        or e.get("event") in ("requeue", "node_lost")
        or e.get("nodes")
        for e in events)
    if distributed:
        sections.append(node_table(events))
    return "\n\n".join(sections)
