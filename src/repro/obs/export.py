"""Exporters: Chrome/Perfetto ``trace_event`` JSON, JSONL streams, and a
per-rank text timeline.

Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` both read
the legacy ``trace_event`` format: a JSON object with a ``traceEvents``
array whose entries carry ``ph`` (phase), ``ts``/``dur`` (microseconds),
``pid``/``tid``, ``name``, ``cat``, and ``args``.  The mapping here:

* one *process* (pid 0) per run, one *thread* per simulated rank
  (``tid = rank``; thread-name metadata events label them);
* spans become complete events (``ph: "X"``) — including the
  ``wait.<reason>`` idle spans, so starvation is visible as explicit
  slices, not gaps;
* :class:`~repro.sim.trace.Trace` records become instant events
  (``ph: "i"``);
* gauge samples become counter events (``ph: "C"``, one counter track
  per series; per-rank series use ``pid = rank`` so Perfetto groups
  them under the rank).

Simulated seconds are scaled to integer-friendly microseconds.  All
output is generated with sorted keys and a stable event order, so a
deterministic run exports byte-identical artifacts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.obs.analyze import RUN_SCHEMA, leaf_kind
from repro.obs.recorder import Recorder
from repro.obs.span import SpanRecord

#: Phases emitted by this exporter (useful for schema validation).
PHASES = ("M", "X", "i", "C")


def jsonable(value: Any) -> Any:
    """Coerce a detail/attr value to something ``json.dumps`` accepts.

    Numpy scalars become Python scalars, arrays become (nested) lists,
    tuples become lists, dict keys become strings.  Unknown objects fall
    back to ``repr`` rather than failing an export.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


#: Exact types :func:`jsonable` returns unchanged.  Matched by ``type()``,
#: never ``isinstance``: ``numpy.float64`` subclasses ``float`` and must
#: still be converted.
_ATOMS = frozenset((int, float, str, bool, type(None)))

#: One encoder per separator style the artifacts use (``json.dumps`` with
#: any keyword builds a new ``JSONEncoder`` per call).  No circular-
#: reference bookkeeping: what they are handed is fresh from
#: :func:`jsonable`, a dict literal of this module, or a list of ints.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False).encode
_SPACED = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def plain(value: Any) -> Any:
    """:func:`jsonable` for the writers' per-record loops: the same
    result, but a value it would return unchanged — an exact ``int`` /
    ``float`` / ``str`` / ``bool`` / ``None``, or a ``list`` of exact
    ``int`` (every ``sids`` payload) — is handed back as is, not walked
    and not copied.  Anything else goes through :func:`jsonable`."""
    kind = type(value)
    if kind in _ATOMS or (kind is list
                          and all(type(v) is int for v in value)):
        return value
    return jsonable(value)


def _us(seconds: float) -> float:
    """Simulated seconds -> trace_event microseconds."""
    return round(seconds * 1e6, 3)


def _span_category(name: str) -> str:
    """Perfetto ``cat`` field: the span name's first dotted component."""
    return name.split(".", 1)[0]


def perfetto_events(spans: Sequence[SpanRecord],
                    samples: Sequence = (),
                    trace_records: Iterable = ()) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list (metadata, slices, instants,
    counters) from recorder spans, gauge samples, and trace records."""
    events: List[Dict[str, Any]] = []
    ranks = sorted({s.rank for s in spans}
                   | {r for _, _, r, _ in samples if r >= 0})
    for r in ranks:
        events.append({"ph": "M", "pid": 0, "tid": r, "ts": 0,
                       "name": "thread_name",
                       "args": {"name": f"rank {r}"}})
        events.append({"ph": "M", "pid": 0, "tid": r, "ts": 0,
                       "name": "thread_sort_index",
                       "args": {"sort_index": r}})
    cats: Dict[str, str] = {}
    for s in spans:
        name = s.name
        cat = cats.get(name)
        if cat is None:
            cat = cats[name] = _span_category(name)
        events.append({
            "ph": "X", "pid": 0, "tid": s.rank, "name": name, "cat": cat,
            "ts": _us(s.start), "dur": _us(s.end - s.start),
            "args": {k: plain(v) for k, v in s.attrs},
        })
    for rec in trace_records:
        events.append({
            "ph": "i", "s": "t", "pid": 0, "tid": rec.rank,
            "name": rec.event, "cat": "trace", "ts": _us(rec.time),
            "args": {k: plain(v) for k, v in rec.detail},
        })
    for time, name, rank, value in samples:
        events.append({
            "ph": "C", "pid": rank if rank >= 0 else 0, "name": name,
            "ts": _us(time), "args": {"value": plain(value)},
        })
    return events


def perfetto_json(recorder: Recorder, trace=None) -> str:
    """The full Perfetto document as a deterministic JSON string."""
    doc = {
        "displayTimeUnit": "ms",
        "traceEvents": perfetto_events(
            recorder.spans, recorder.registry.samples,
            trace if trace is not None else ()),
    }
    return _COMPACT(doc)


def write_perfetto(path, recorder: Recorder, trace=None) -> None:
    """Write ``path`` as a Perfetto/chrome-tracing JSON file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(perfetto_json(recorder, trace=trace))
        f.write("\n")


def write_jsonl(path, rows: Iterable[Dict[str, Any]]) -> None:
    """One sorted-key JSON object per row, streamed to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_SPACED(row) + "\n" for row in rows)


def write_spans_jsonl(path, recorder: Recorder) -> None:
    """One JSON object per completed span, in completion order."""
    write_jsonl(path, ({
        "rank": s.rank, "name": s.name, "start": s.start,
        "end": s.end, "depth": s.depth,
        "attrs": {k: plain(v) for k, v in s.attrs},
    } for s in recorder.spans))


def write_samples_jsonl(path, recorder: Recorder) -> None:
    """One JSON object per gauge sample, in sampling order."""
    write_jsonl(path, ({
        "time": time, "name": name, "rank": rank, "value": plain(value),
    } for time, name, rank, value in recorder.registry.samples))


def run_json_doc(result, recorder: Recorder) -> Dict[str, Any]:
    """The ``run.json`` document: run outcome + per-rank metrics + wait
    totals — everything ``repro analyze`` needs that spans/samples do
    not carry.  ``result`` is duck-typed (a ``RunResult``)."""
    return {
        "schema": RUN_SCHEMA,
        "algorithm": result.algorithm,
        "status": result.status,
        "n_ranks": result.n_ranks,
        "wall_clock": result.wall_clock,
        "master_ranks": list(getattr(result, "master_ranks", [])),
        "ranks": [jsonable(m.as_dict())
                  for m in sorted(result.rank_metrics,
                                  key=lambda m: m.rank)],
        "waits": {str(m.rank): recorder.waits.of(m.rank)
                  for m in sorted(result.rank_metrics,
                                  key=lambda m: m.rank)},
        "histograms": recorder.registry.histograms(),
        "counters": recorder.registry.counters(),
    }


def write_run_json(path, result, recorder: Recorder) -> None:
    """Write ``run.json`` (deterministic: sorted keys, stable order)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(_COMPACT(jsonable(run_json_doc(result, recorder))) + "\n")


# ---------------------------------------------------------------------- #
# Per-seed Perfetto track
# ---------------------------------------------------------------------- #

def seed_perfetto_events(lineage) -> List[Dict[str, Any]]:
    """``traceEvents`` for one seed's lifecycle: a dedicated process
    (pid 1, named after the sid) with one thread whose slices are the
    lifecycle segments, so a seed's cross-rank journey reads as a single
    horizontal track in the Perfetto UI.  ``args.rank`` records where
    each segment ran (-1 = in flight between ranks)."""
    sid = lineage.sid
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": sid, "ts": 0,
         "name": "process_name", "args": {"name": "streamlines"}},
        {"ph": "M", "pid": 1, "tid": sid, "ts": 0,
         "name": "thread_name", "args": {"name": f"seed {sid}"}},
        {"ph": "M", "pid": 1, "tid": sid, "ts": 0,
         "name": "thread_sort_index", "args": {"sort_index": sid}},
    ]
    for seg in lineage.segments:
        events.append({
            "ph": "X", "pid": 1, "tid": sid,
            "name": seg.kind, "cat": "seed",
            "ts": _us(seg.start), "dur": _us(seg.duration),
            "args": {"rank": seg.rank, "sid": sid},
        })
    return events


def seed_perfetto_json(lineages: Sequence) -> str:
    """Perfetto document with one track per seed lifecycle (deterministic
    JSON; lineages are rendered in the given order)."""
    events: List[Dict[str, Any]] = []
    for lineage in lineages:
        events.extend(seed_perfetto_events(lineage))
    return _COMPACT({"displayTimeUnit": "ms", "traceEvents": events})


def write_seed_perfetto(path, lineages: Sequence) -> None:
    """Write per-seed lifecycle tracks as a Perfetto JSON file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(seed_perfetto_json(lineages))
        f.write("\n")


# ---------------------------------------------------------------------- #
# Text timeline (Gantt)
# ---------------------------------------------------------------------- #

#: Timeline glyphs by leaf-span kind (:func:`~repro.obs.analyze.leaf_kind`:
#: only leaf activity spans paint the chart — container spans such as
#: ``io.load_block`` would double-cover their children); ``wait.*`` spans,
#: which are not busy kinds, paint the attributed-wait dot.
_KIND_GLYPHS = {"compute": "C", "io": "I", "comm": "M"}


def _glyph_for(name: str) -> Optional[str]:
    kind = leaf_kind(name)
    if kind is None:
        return "·" if name.startswith("wait.") else None
    return _KIND_GLYPHS[kind]


def timeline_text(recorder: Recorder, wall_clock: float,
                  n_ranks: int, width: int = 72) -> str:
    """Per-rank Gantt chart: one row per rank, one column per
    ``wall_clock / width`` slice, glyph = dominant activity
    (C compute, I i/o, M comm, · attributed wait, space = untracked)."""
    if wall_clock <= 0 or width < 1:
        return "(empty timeline)"
    dt = wall_clock / width
    # occupancy[rank][column][glyph] -> overlapped seconds
    occupancy: Dict[int, List[Dict[str, float]]] = {
        r: [dict() for _ in range(width)] for r in range(n_ranks)}
    for s in recorder.spans:
        glyph = _glyph_for(s.name)
        if glyph is None or s.rank not in occupancy:
            continue
        first = min(width - 1, max(0, int(s.start / dt)))
        last = min(width - 1, max(0, int(s.end / dt)))
        for col in range(first, last + 1):
            lo = max(s.start, col * dt)
            hi = min(s.end, (col + 1) * dt)
            if hi <= lo:
                continue
            cell = occupancy[s.rank][col]
            cell[glyph] = cell.get(glyph, 0.0) + (hi - lo)
    lines = [f"timeline  0.0 .. {wall_clock:.3f} s  "
             f"(C compute, I i/o, M comm, · wait)"]
    for r in range(n_ranks):
        row = []
        for cell in occupancy[r]:
            if not cell:
                row.append(" ")
            else:
                # Dominant activity; ties broken by glyph for determinism.
                row.append(max(cell.items(), key=lambda kv: (kv[1], kv[0]))[0])
        lines.append(f"rank {r:>4} |{''.join(row)}|")
    return "\n".join(lines)
