"""Executor telemetry: one event stream, its sinks, and its two views.

A :class:`~repro.exec.executor.SweepExecutor` turns every run-lifecycle
transition into one event dict and hands it to each sink passed as
``telemetry=`` (anything with an ``emit(dict)`` method), all from the
parent scheduler loop — a single writer, so a log needs no locking and
lines never interleave:

``sweep_begin``
    once per ``run()`` call — ``jobs`` (declared worker slots) and
    ``runs`` (spec count);
``start``
    a spec was handed to a worker slot (or the inline call began);
``finish``
    the run's result arrived (or its timeout fired / its child died);
``retire``
    the outcome was merged into the results list — carries ``status``,
    ``elapsed`` (real seconds), and, when the worker reported, its
    ``host`` metric dict (:mod:`repro.obs.host`) framed back with the
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
Run events carry the worker slot and a ``node`` identity (the
pseudo-node ``local`` for in-machine slots); a distributed sweep's
``sweep_begin`` adds the per-node slot/speed summary.

A run's lifecycle is one or more **episodes**: every failed attempt is
``start -> requeue`` and the final one is ``start -> finish -> retire``
— exactly one ``retire`` per run, so retire-count == run count holds
even under failover.  Worker slots are released at ``retire`` /
``requeue``, so per-worker busy intervals never overlap — the
invariants :func:`validate_events` checks, together with per-episode
event ordering and worker consistency.

Sinks: :class:`JsonlTelemetry` writes the log, :func:`text_progress`
renders it live.  The analyzers turn a log into the two views that show
how busy each slot stayed: one per-slot table
(:func:`utilization_table`) and a per-worker timeline
(:func:`worker_timeline_text`).  Host event logs are never byte-stable;
they live outside BENCH snapshots and the deterministic sweep outputs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exec.transport import LOCAL_NODE

#: Recognized event kinds.
EVENT_KINDS = ("sweep_begin", "start", "finish", "retire", "requeue",
               "node_lost", "sweep_end")

#: Per-run lifecycle kinds grouped for validation.
_RUN_KINDS = ("start", "finish", "retire", "requeue")

#: A completed (final) episode; earlier episodes end in ``requeue``.
_FINAL_EPISODE = ("start", "finish", "retire")
_REQUEUED_EPISODE = ("start", "requeue")


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
    """Split one run's events at each ``start`` (one episode per
    attempt)."""
    episodes: List[List[Mapping[str, Any]]] = []
    current: List[Mapping[str, Any]] = []
    for event in seq:
        if event["event"] == "start" and current:
            episodes.append(current)
            current = []
        current.append(event)
    if current:
        episodes.append(current)
    return episodes


def validate_events(events: Sequence[Mapping[str, Any]]) -> List[str]:
    """Schema and invariant checks; returns problems (empty == valid).

    Checked: known event kinds with numeric non-negative ``t``; per-run
    episode structure — every non-final episode is ``start -> requeue``
    (a remote worker death) and the final one ``start -> finish ->
    retire`` — with non-decreasing timestamps and
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
        if kinds[0] != "start":
            problems.append(f"run {run}: lifecycle starts with "
                            f"{kinds[0]!r}, not 'start'")
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
    """The per-slot view: one row per (worker slot, node) seen — the
    node's speed factor, retired runs, requeued attempts, busy seconds
    and utilization over the makespan.  The footer charges idle time to
    every slot the sweep declared (``sweep_begin.jobs``), not only to
    the slots that ran something, and breaks utilization down per node
    (slots from the ``sweep_begin`` node summary when present)."""
    span = makespan(events)
    intervals = worker_intervals(events)
    if not intervals or span <= 0.0:
        return "(no completed runs in the event log)"
    begin = next((e for e in events if e.get("event") == "sweep_begin"),
                 {})
    declared = {str(n["node"]): n for n in begin.get("nodes") or []}
    rows: Dict[Tuple[int, str], Dict[str, Any]] = {}
    for iv in sorted((iv for ivs in intervals.values() for iv in ivs),
                     key=lambda iv: (iv.worker, str(iv.node))):
        row = rows.setdefault((iv.worker, iv.node or LOCAL_NODE),
                              {"runs": 0, "requeues": 0, "busy": 0.0})
        row["requeues" if iv.status == "requeue" else "runs"] += 1
        row["busy"] += iv.end - iv.start
    header = (f"{'worker':>6}  {'node':<12} {'speed':>6}  {'runs':>5}  "
              f"{'requeues':>8}  {'busy [s]':>10}  {'util %':>7}")
    lines = [header, "-" * len(header)]
    node_busy: Dict[str, float] = {}
    node_seen: Dict[str, set] = {}
    for (worker, node), row in rows.items():
        speed = declared.get(node, {}).get(
            "speed", 1.0 if node == LOCAL_NODE else None)
        speed_text = f"{speed:.2f}" if speed is not None else "-"
        lines.append(f"{worker:>6d}  {node:<12} {speed_text:>6}  "
                     f"{row['runs']:>5d}  {row['requeues']:>8d}  "
                     f"{row['busy']:>10.3f}  "
                     f"{row['busy'] / span * 100.0:>6.1f}%")
        node_busy[node] = node_busy.get(node, 0.0) + row["busy"]
        node_seen.setdefault(node, set()).add(worker)
    slots = int(begin.get("jobs") or 0) or len({w for w, _ in rows})
    node_slots = ({name: int(n.get("slots") or 0)
                   for name, n in declared.items()}
                  if declared else {LOCAL_NODE: slots})
    retired = sum(1 for e in events if e.get("event") == "retire")
    lines.append("")
    lines.append(f"makespan {span:.3f} s; {retired} runs retired on "
                 f"{slots} declared slot(s); pool utilization "
                 f"{sum(node_busy.values()) / (span * slots) * 100.0:.1f}%")
    per_node = []
    for node in sorted(set(node_busy) | set(node_slots)):
        n = node_slots.get(node) or len(node_seen.get(node, ())) or 1
        per_node.append(
            f"{node} {node_busy.get(node, 0.0) / (span * n) * 100.0:.1f}%")
    lost = sorted({str(e.get("node")) for e in events
                   if e.get("event") == "node_lost"})
    lines.append("per node: " + ", ".join(per_node)
                 + (f"; lost: {', '.join(lost)}" if lost else ""))
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


def telemetry_report(events: Sequence[Mapping[str, Any]],
                     width: int = 72) -> str:
    """The ``utilization.txt`` report: the per-slot table, then the
    per-worker timeline."""
    return (utilization_table(events) + "\n\n"
            + worker_timeline_text(events, width=width))


# ---------------------------------------------------------------------- #
# Live progress
# ---------------------------------------------------------------------- #

class _TextProgress:
    """The sink :func:`text_progress` returns."""

    def __init__(self, out: Any) -> None:
        self.out = out
        self.total = self.done = 0
        self.running: Dict[str, str] = {}  # run name -> worker label
        self.max_active = 1
        self.elapsed_sum = 0.0

    def _eta(self) -> str:
        remaining = self.total - self.done
        if remaining <= 0 or not self.done:
            return ""
        eta = (self.elapsed_sum / self.done * remaining
               / max(1, self.max_active))
        return f" ETA ~{eta:.0f}s"

    def emit(self, event: Mapping[str, Any]) -> None:
        kind, name = event.get("event"), event.get("run")
        if kind == "sweep_begin":
            self.total = int(event.get("runs") or 0)
            return
        node = event.get("node")
        label = f"w{event.get('worker')}" + (
            "" if node in (None, LOCAL_NODE) else f"@{node}")
        if kind == "start":
            self.running[name] = label
            self.max_active = max(self.max_active, len(self.running))
            queued = max(0, self.total - self.done - len(self.running))
            line = (f"  [{label}] {name}: start ({len(self.running)} "
                    f"running, {queued} queued)")
        elif kind == "requeue":
            self.running.pop(name, None)
            line = f"  [{label}] {name}: REQUEUED (worker died; retrying)"
        elif kind == "retire":
            self.running.pop(name, None)
            self.done += 1
            elapsed = float(event.get("elapsed") or 0.0)
            self.elapsed_sum += elapsed
            line = (f"    [{self.done}/{self.total}] [{label}] {name}: "
                    f"status={event.get('status')} {elapsed:.1f}s real"
                    f"{self._eta()}")
        else:
            return
        self.out.write(line + "\n")
        self.out.flush()


def text_progress(stream: Any = None) -> _TextProgress:
    """A telemetry sink printing one live line per ``start``,
    ``requeue`` and ``retire`` (to *stream*, default stdout), with
    per-worker labels and an ETA while runs remain.

    Labels are the events' own slot ids, so they match the event log
    exactly; remote slots render as ``[wN@node]``.  Each line is one
    ``write()`` call: several runs finishing in the same scheduler poll
    cannot interleave partial lines.  A run's simulated metrics are not
    in any event — ``repro sweep`` prints them in its table after the
    sweep.
    """
    return _TextProgress(stream if stream is not None else sys.stdout)
