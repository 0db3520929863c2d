"""Paper-style figure tables and trace-analysis reports.

The paper's Figures 5-16 are log-scale line plots of one metric vs.
processor count, one series per (algorithm, seeding).  ``figure_table``
prints the same data as an aligned text table — the rows/series the paper
reports — which the benchmarks emit and EXPERIMENTS.md records.

``analysis_report`` renders a :class:`~repro.obs.analyze.RunAnalysis`
(the ``repro analyze`` output): the critical-path breakdown, imbalance
and participation diagnostics, the block-efficiency trajectory, and the
leaf-span duration summaries.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.analysis.experiments import RunSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.core.results import RunResult
    from repro.obs import Recorder, RunAnalysis

#: metric name -> (figure caption fragment, unit, format)
METRIC_INFO = {
    "wall_clock": ("wall clock time", "s", "{:.3f}"),
    "io_time": ("total I/O time", "s", "{:.2f}"),
    "comm_time": ("total communication time", "s", "{:.3f}"),
    "block_efficiency": ("block efficiency E", "", "{:.3f}"),
}

#: dataset/metric -> paper figure number.
FIGURE_NUMBERS = {
    ("astro", "wall_clock"): 5,
    ("astro", "io_time"): 6,
    ("astro", "block_efficiency"): 7,
    ("astro", "comm_time"): 8,
    ("fusion", "wall_clock"): 9,
    ("fusion", "io_time"): 10,
    ("fusion", "comm_time"): 11,
    ("fusion", "block_efficiency"): 12,
    ("thermal", "wall_clock"): 13,
    ("thermal", "io_time"): 14,
    ("thermal", "comm_time"): 15,
    ("thermal", "block_efficiency"): 16,
}


def format_value(metric: str, value: Optional[float]) -> str:
    """One cell: formatted number, or OOM for a failed run."""
    if value is None:
        return "OOM"
    return METRIC_INFO[metric][2].format(value)


def format_series(summaries: Sequence[RunSummary],
                  metric: str) -> Dict[Tuple[str, str], List[Tuple[int, str]]]:
    """Group summaries into (algorithm, seeding) series of
    (n_ranks, formatted value) points, sorted by rank count."""
    if metric not in METRIC_INFO:
        raise ValueError(f"unknown metric {metric!r}")
    series: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
    for s in summaries:
        k = (s.key.algorithm, s.key.seeding)
        series.setdefault(k, []).append(
            (s.key.n_ranks, format_value(metric, s.metric(metric))))
    for pts in series.values():
        pts.sort(key=lambda p: p[0])
    return series


def figure_table(dataset: str, summaries: Sequence[RunSummary],
                 metric: str) -> str:
    """Render one paper figure as an aligned text table."""
    series = format_series(summaries, metric)
    fig = FIGURE_NUMBERS.get((dataset, metric))
    caption, unit, _ = METRIC_INFO[metric]
    rank_counts = sorted({s.key.n_ranks for s in summaries})

    header = f"Figure {fig}: {caption} — {dataset} dataset"
    if unit:
        header += f" [{unit}]"
    col0 = "algorithm/seeding"
    keys = sorted(series.keys())
    width0 = max(len(col0), max((len(f"{a} ({sd})") for a, sd in keys),
                                default=0))
    colw = max(10, *(len(str(r)) + 2 for r in rank_counts))

    lines = [header]
    lines.append(col0.ljust(width0) + "".join(
        f"{r:>{colw}}" for r in rank_counts))
    lines.append("-" * (width0 + colw * len(rank_counts)))
    for a, sd in keys:
        cells = dict(series[(a, sd)])
        row = f"{a} ({sd})".ljust(width0)
        for r in rank_counts:
            row += f"{cells.get(r, '-'):>{colw}}"
        lines.append(row)
    return "\n".join(lines)


def wait_state_table(result: "RunResult", obs: "Recorder") -> str:
    """Per-rank decomposition of the wall clock into busy time, named
    wait states, and the drain tail.

    Per rank, ``busy + Σ wait:<reason> + drain == wall`` up to float
    summation error: every simulated cost is charged by
    ``Recorder.charge``, every blocked interval is attributed to a
    reason, and *drain* is the gap between the rank finishing its
    program and the run's last event (``wall - finish_time`` — not a
    wait, the rank is done).

    Hybrid master ranks are listed like every other rank but labelled
    with a ``role`` column (their idle is coordination parking, not
    starvation — the distinction the §5 discussion rests on).  For the
    single-role algorithms the column is omitted.
    """
    wall = result.wall_clock
    reasons = obs.waits.reasons()
    masters = set(getattr(result, "master_ranks", ()))
    role_w = 8 if masters else 0
    header = f"{'rank':>5} "
    if masters:
        header += f"{'role':>{role_w}} "
    header += (f"{'busy':>10} "
               + "".join(f"{'wait:' + r:>{max(10, len(r) + 6)}}"
                         for r in reasons)
               + f" {'drain':>10} {'total':>10} {'wall':>10}")
    lines = [header, "-" * len(header)]
    for m in sorted(result.rank_metrics, key=lambda m: m.rank):
        waits = obs.waits.of(m.rank)
        drain = max(0.0, wall - m.finish_time)
        total = m.busy_time + sum(waits.values()) + drain
        row = f"{m.rank:>5} "
        if masters:
            role = "master" if m.rank in masters else "slave"
            row += f"{role:>{role_w}} "
        row += f"{m.busy_time:>10.3f} "
        row += "".join(f"{waits.get(r, 0.0):>{max(10, len(r) + 6)}.3f}"
                       for r in reasons)
        row += f" {drain:>10.3f} {total:>10.3f} {wall:>10.3f}"
        lines.append(row)
    return "\n".join(lines)


def critical_path_context_table(
        entries: Mapping[str, Mapping[str, Any]]) -> str:
    """Critical-path context for a set of analyzed runs (the ``repro
    analyze`` breakdown, condensed to one row per run).

    ``entries`` maps run name to a bench-style entry dict (what
    ``BENCH_*.json`` stores per run: ``wall_clock``, ``status``, and a
    ``critical_path`` kind -> seconds table).  Rendered as an aligned
    table — wall clock plus each critical-path component with its share
    of the wall — this is the end-to-end attribution EXPERIMENTS.md
    pairs with the figure tables: *why* an algorithm's wall clock is
    what it is, not just what it is.  Runs that did not complete (the
    §5.3 OOM) render as their status.
    """
    kinds = ("compute", "io", "comm", "idle")
    name_w = max(len("run"), max((len(n) for n in entries), default=0))
    col_w = 16
    seed_cols = ("p50", "p95") if any(
        isinstance(e.get("seed_latency"), Mapping)
        for e in entries.values()) else ()
    header = ("run".ljust(name_w) + f"{'wall [s]':>10}"
              + "".join(f"{k:>{col_w}}" for k in kinds)
              + "".join(f"{'seed ' + c:>10}" for c in seed_cols))
    lines = [header, "-" * len(header)]
    for name, entry in entries.items():
        status = entry.get("status", "ok")
        if status != "ok":
            lines.append(name.ljust(name_w)
                         + f"{status.upper():>10}")
            continue
        wall = float(entry.get("wall_clock", 0.0))
        path = entry.get("critical_path", {})
        row = name.ljust(name_w) + f"{wall:>10.3f}"
        for kind in kinds:
            seconds = float(path.get(kind, 0.0))
            pct = 100.0 * seconds / wall if wall > 0 else 0.0
            row += f"{seconds:>9.3f} {pct:>4.1f}%".rjust(col_w)
        latency = entry.get("seed_latency")
        for c in seed_cols:
            if isinstance(latency, Mapping) and c in latency:
                row += f"{float(latency[c]):>10.3f}"
            else:
                row += f"{'-':>10}"
        lines.append(row)
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Trace analysis report (``repro analyze``)
# ---------------------------------------------------------------------- #

def _breakdown_table(analysis: "RunAnalysis") -> List[str]:
    from repro.obs.analyze import SEGMENT_KINDS

    wall = analysis.wall_clock
    lines = [f"{'segment':<10} {'seconds':>12} {'% of wall':>10} "
             f"{'hops':>6}"]
    lines.append("-" * len(lines[0]))
    hop_counts = {k: 0 for k in SEGMENT_KINDS}
    for seg in analysis.segments:
        hop_counts[seg.kind] = hop_counts.get(seg.kind, 0) + 1
    for kind in SEGMENT_KINDS:
        seconds = analysis.critical_path.get(kind, 0.0)
        pct = 100.0 * seconds / wall if wall > 0 else 0.0
        lines.append(f"{kind:<10} {seconds:>12.3f} {pct:>9.1f}% "
                     f"{hop_counts.get(kind, 0):>6d}")
    total = analysis.path_total
    lines.append(f"{'total':<10} {total:>12.3f} "
                 f"{100.0 * total / wall if wall > 0 else 0.0:>9.1f}% "
                 f"{len(analysis.segments):>6d}")
    return lines


def _efficiency_trajectory(analysis: "RunAnalysis",
                           max_rows: int = 8) -> List[str]:
    series = analysis.block_efficiency
    if not series:
        return ["(no run.blocks_loaded/purged samples — trace was "
                "recorded before the analytics layer, or sampling was "
                "disabled)"]
    if len(series) > max_rows:
        stride = (len(series) - 1) / (max_rows - 1)
        picks = sorted({round(i * stride) for i in range(max_rows)})
        series = [series[i] for i in picks]
    lines = [f"{'t [s]':>10} {'E':>7}"]
    for t, e in series:
        lines.append(f"{t:>10.2f} {e:>7.3f}")
    return lines


def _span_summary_table(analysis: "RunAnalysis") -> List[str]:
    if not analysis.span_summaries:
        return ["(no leaf spans recorded)"]
    header = (f"{'spans':<10} {'count':>8} {'mean':>10} {'p50':>10} "
              f"{'p95':>10} {'max':>10}")
    lines = [header, "-" * len(header)]
    for kind, s in sorted(analysis.span_summaries.items()):
        lines.append(f"{kind:<10} {int(s['count']):>8d} {s['mean']:>10.4f} "
                     f"{s['p50']:>10.4f} {s['p95']:>10.4f} "
                     f"{s['max']:>10.4f}")
    return lines


def analysis_report(analysis: "RunAnalysis") -> str:
    """Full ``repro analyze`` text report for one run."""
    imb = analysis.imbalance
    out: List[str] = []
    out.append(f"{analysis.algorithm} @ {analysis.n_ranks} ranks — "
               f"wall clock {analysis.wall_clock:.3f} s "
               f"(status: {analysis.status})")
    out.append("")
    out.append("critical path (end-to-end wall-clock attribution):")
    out.extend(_breakdown_table(analysis))
    out.append("")
    out.append("imbalance:")
    out.append(f"  busy max/mean      {imb['busy_max']:10.3f} / "
               f"{imb['busy_mean']:.3f} s "
               f"(factor {imb['imbalance_factor']:.2f})")
    out.append(f"  Gini(steps/rank)   {imb['gini_steps']:10.3f}")
    out.append(f"  idle fraction      {imb['idle_fraction']:10.3f}")
    out.append("")
    out.append("parallel-over-data diagnostics:")
    out.append(f"  participation ratio {analysis.participation_ratio:9.3f}"
               f"  (ranks that advected)")
    out.append(f"  handoffs received   {analysis.lines_received:9d}")
    out.append(f"  ping-pong arrivals  {analysis.pingpong_count:9d}"
               f"  (re-entered a visited rank)")
    out.append("")
    out.append("block efficiency over time (cumulative E):")
    out.extend(_efficiency_trajectory(analysis))
    out.append("")
    out.append("seed latency (birth -> termination, per streamline):")
    latency = analysis.seed_latency
    if latency is None:
        out.append("  (no per-seed provenance — trace was recorded "
                   "before streamline ids; see `repro slowest` after "
                   "re-tracing)")
    else:
        out.append(f"  completed seeds    {int(latency['count']):10d}")
        out.append(f"  mean / p50         {latency['mean']:10.3f} / "
                   f"{latency['p50']:.3f} s")
        out.append(f"  p95 / max          {latency['p95']:10.3f} / "
                   f"{latency['max']:.3f} s")
    out.append("")
    out.append("leaf span durations [s]:")
    out.extend(_span_summary_table(analysis))
    return "\n".join(out)
