"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        run one evaluation scenario with one algorithm and print
               the paper's metrics for it
``figure``     regenerate one paper figure (table form); ``--jobs N``
               fans the runs over a process pool
``sweep``      run a full evaluation grid with the parallel sweep
               executor (``--jobs N``) and write a deterministic
               summary JSON — byte-identical for any job count; runs
               are dispatched heaviest problem first by a static cost
               model; ``--dry-run`` prints that order with each run's
               share of the model total without executing;
               ``--telemetry DIR`` additionally captures the executor's
               host-side event log and utilization report;
               ``--nodes host1:4,host2:8`` dispatches runs to
               long-lived remote workers, fastest node first, with
               failover — still byte-identical
``trace``      run one scenario with full observability and export a
               Perfetto timeline, span/sample JSONL, and idle analysis
``analyze``    post-run analytics on a ``trace`` output directory:
               critical-path breakdown, imbalance, ping-pong diagnostics
``slowest``    top-K slowest streamlines of a trace with per-segment
               lifecycle breakdowns (per-seed critical paths)
``streamline`` full cross-rank lifecycle of one streamline, optionally
               exported as a per-seed Perfetto track
``diff``       compare two runs (trace dirs or BENCH_*.json files) with
               regression thresholds; non-zero exit on regression
``recommend``  apply the §6 decision heuristics to a described problem
``scenarios``  list the built-in evaluation scenarios
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.experiments import run_experiment, sweep_dataset
from repro.analysis.heuristics import ProblemTraits, recommend_algorithm
from repro.analysis.report import (
    FIGURE_NUMBERS,
    analysis_report,
    figure_table,
    wait_state_table,
)
from repro.analysis.scenarios import (
    DATASETS,
    RANK_COUNTS,
    SEEDINGS,
    make_problem,
    scenario_machine,
)
from repro.core.config import ALGORITHMS, HybridConfig


def _cmd_run(args: argparse.Namespace) -> int:
    summary = run_experiment(args.dataset, args.seeding, args.algorithm,
                             args.ranks, scale=args.scale)
    if not summary.ok:
        print(f"{args.algorithm} on {args.dataset}/{args.seeding}: "
              f"OUT OF MEMORY (the paper's §5.3 outcome)")
        return 0
    print(f"{args.algorithm} on {args.dataset}/{args.seeding} "
          f"@ {args.ranks} simulated ranks (scale {args.scale}):")
    print(f"  wall clock        {summary.wall_clock:12.3f} s")
    print(f"  total I/O time    {summary.io_time:12.3f} s")
    print(f"  total comm time   {summary.comm_time:12.3f} s")
    print(f"  total compute     {summary.compute_time:12.3f} s")
    print(f"  block efficiency  {summary.block_efficiency:12.3f}")
    print(f"  blocks loaded     {summary.blocks_loaded:12d}")
    print(f"  blocks purged     {summary.blocks_purged:12d}")
    print(f"  messages          {summary.messages:12d}")
    print(f"  bytes sent        {summary.bytes_sent:12d}")
    print(f"  steps             {summary.steps:12d}")
    print(f"  parallel eff.     {summary.parallel_efficiency:12.3f}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    metric = {str(v): m for (d, m), v in FIGURE_NUMBERS.items()
              if d == args.dataset}.get(str(args.number))
    if metric is None:
        valid = sorted(v for (d, _), v in FIGURE_NUMBERS.items()
                       if d == args.dataset)
        print(f"figure {args.number} is not a {args.dataset} figure; "
              f"valid: {valid}", file=sys.stderr)
        return 2
    from repro.exec import text_progress

    # Live progress on stderr when fanning out: stdout stays the table.
    progress = text_progress(sys.stderr) if args.jobs != 1 else None
    try:
        summaries = sweep_dataset(args.dataset, scale=args.scale,
                                  rank_counts=args.ranks or RANK_COUNTS,
                                  jobs=args.jobs,
                                  timeout=args.timeout or None,
                                  telemetry=progress)
    except RuntimeError as exc:
        print(f"repro figure: {exc}", file=sys.stderr)
        return 1
    print(figure_table(args.dataset, summaries, metric))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exec import grid_specs, merge_run_entries
    from repro.exec.frontend import drive_sweep, write_doc

    def split(text: str, valid, what: str) -> List[str]:
        items = [x for x in text.split(",") if x]
        for item in items:
            if item not in valid:
                raise ValueError(f"unknown {what} {item!r}; "
                                 f"expected one of {tuple(valid)}")
        return items

    try:
        datasets = split(args.dataset, DATASETS, "dataset")
        seedings = split(args.seeding, SEEDINGS, "seeding")
        algorithms = split(args.algorithm, ALGORITHMS, "algorithm")
        if not datasets:
            raise ValueError("no datasets selected")
    except ValueError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2
    rank_counts = args.ranks or list(RANK_COUNTS)
    specs = grid_specs(datasets, seedings, algorithms, rank_counts,
                       scale=args.scale)
    outcomes, code = drive_sweep(args, specs, "repro sweep")
    if outcomes is None:
        return code

    runs = merge_run_entries(outcomes)
    print(f"{'run':<28}{'status':>8}{'wall':>12}{'io':>12}{'comm':>12}"
          f"{'E':>8}")
    print("-" * 80)
    for name, entry in runs.items():
        cells = [f"{name:<28}{entry['status']:>8}"]
        for metric, w in (("wall_clock", 12), ("io_time", 12),
                          ("comm_time", 12), ("block_efficiency", 8)):
            value = entry.get(metric)
            cells.append(f"{value:>{w}.3f}" if isinstance(value, float)
                         else f"{'-':>{w}}")
        print("".join(cells))

    if args.out:
        doc = {
            "schema": 1,
            "config": {
                "datasets": datasets,
                "seedings": seedings,
                "algorithms": algorithms,
                "ranks": list(rank_counts),
                "scale": args.scale,
            },
            "runs": runs,
        }
        write_doc(args.out, doc)
        print(f"wrote {args.out} ({len(runs)} runs)", file=sys.stderr)
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.driver import run_streamlines
    from repro.obs import Recorder, timeline_text, write_perfetto, \
        write_run_json, write_samples_jsonl, write_spans_jsonl
    from repro.sim.trace import Trace

    problem = make_problem(args.dataset, args.seeding, scale=args.scale)
    trace = Trace(enabled=True)
    obs = Recorder(enabled=True, sample_interval=args.sample_interval)
    result = run_streamlines(problem, algorithm=args.algorithm,
                             machine=scenario_machine(args.ranks),
                             trace=trace, obs=obs)

    out = Path(args.out) / (f"{args.dataset}-{args.seeding}-"
                            f"{args.algorithm}-{args.ranks}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"repro trace: cannot create output directory {out}: "
              f"{exc}", file=sys.stderr)
        return 2
    write_perfetto(out / "trace.perfetto.json", obs, trace=trace)
    write_spans_jsonl(out / "spans.jsonl", obs)
    write_samples_jsonl(out / "samples.jsonl", obs)
    write_run_json(out / "run.json", result, obs)
    trace.to_jsonl(out / "events.jsonl")

    print(f"{args.algorithm} on {args.dataset}/{args.seeding} "
          f"@ {args.ranks} simulated ranks (scale {args.scale}):")
    if not result.ok:
        print(f"  OUT OF MEMORY at rank {result.oom_rank} "
              f"(t={result.wall_clock:.3f} s); artifacts cover the run "
              "up to the failure")
    else:
        print(f"  wall clock {result.wall_clock:.3f} s; "
              f"{len(obs.spans)} spans, "
              f"{len(obs.registry.samples)} samples, "
              f"{len(trace)} trace events")
    print(f"  artifacts in {out}/: trace.perfetto.json (open in "
          "ui.perfetto.dev), spans.jsonl, samples.jsonl, events.jsonl, "
          "run.json (feed the directory to `repro analyze`)")
    print()
    print(timeline_text(obs, result.wall_clock, args.ranks,
                        width=args.width))
    print()
    print("wall-clock decomposition per rank [s]:")
    print(wait_state_table(result, obs))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs import analyze_dir

    try:
        analysis = analyze_dir(args.trace_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return 2
    print(analysis_report(analysis))
    return 0


def _load_trace_lineages(trace_dir):
    """Spans of a ``repro trace`` output directory and their marker-only
    seed lineages (empty when the trace predates per-streamline
    provenance); callers tile just the seeds they print."""
    from repro.obs import seed_episodes
    from repro.obs.analyze import load_spans_jsonl

    path = Path(trace_dir) / "spans.jsonl"
    if not path.is_file():
        raise FileNotFoundError(
            f"{path} not found — pass a `repro trace` output directory")
    spans = load_spans_jsonl(path)
    return spans, seed_episodes(spans)


_NO_PROVENANCE = (
    "no per-seed provenance in this trace: it was recorded before "
    "streamline ids were attached to spans — re-run `repro trace` "
    "to regenerate it")


def _cmd_slowest(args: argparse.Namespace) -> int:
    from repro.obs import slowest_seeds, slowest_table, tile_segments, \
        write_seed_perfetto

    try:
        spans, lineages = _load_trace_lineages(args.trace_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro slowest: {exc}", file=sys.stderr)
        return 2
    if not lineages:
        print(_NO_PROVENANCE)
        return 0
    picks = tile_segments(spans, slowest_seeds(lineages, top=args.top))
    print(f"slowest {len(picks)} of {len(lineages)} seeds "
          f"(birth->termination latency, per-segment breakdown):")
    print(slowest_table(lineages, top=args.top))
    if args.perfetto:
        write_seed_perfetto(args.perfetto, picks)
        print(f"wrote {len(picks)} per-seed Perfetto track(s) to "
              f"{args.perfetto}", file=sys.stderr)
    return 0


def _cmd_streamline(args: argparse.Namespace) -> int:
    from repro.obs import lifecycle_table, tile_segments, \
        write_seed_perfetto

    try:
        spans, lineages = _load_trace_lineages(args.trace_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro streamline: {exc}", file=sys.stderr)
        return 2
    if not lineages:
        print(f"repro streamline: {_NO_PROVENANCE}", file=sys.stderr)
        return 2
    by_sid = {ln.sid: ln for ln in lineages}
    lineage = by_sid.get(args.sid)
    if lineage is None:
        print(f"repro streamline: no lineage for seed {args.sid} "
              f"(trace has seeds {min(by_sid)}..{max(by_sid)})",
              file=sys.stderr)
        return 2
    tile_segments(spans, [lineage])
    print(lifecycle_table(lineage))
    if args.perfetto:
        write_seed_perfetto(args.perfetto, [lineage])
        print(f"wrote the seed's Perfetto track to {args.perfetto}",
              file=sys.stderr)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_runs, diff_table, load_comparable, \
        regressions
    from repro.obs.diff import parse_threshold_args

    try:
        thresholds = parse_threshold_args(args.threshold)
        base = load_comparable(args.base)
        new = load_comparable(args.new)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro diff: {exc}", file=sys.stderr)
        return 2
    rows = diff_runs(base, new, thresholds=thresholds)
    print(diff_table(rows, all_rows=args.all))
    return 1 if regressions(rows) else 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    traits = ProblemTraits(
        data_fits_memory=args.data_fits_memory,
        seed_count=args.seeds,
        seed_spread=args.spread,
        flow_known_uniform=args.uniform_flow,
    )
    algo, reasons = recommend_algorithm(traits)
    print(f"recommended algorithm: {algo}")
    for r in reasons:
        print(f"  - {r}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    print(f"{'dataset':<10}{'seeding':<9}{'seeds':>8}  description")
    print("-" * 64)
    for dataset in DATASETS:
        for seeding in SEEDINGS:
            problem = make_problem(dataset, seeding, scale=args.scale)
            print(f"{dataset:<10}{seeding:<9}{problem.n_seeds:>8}  "
                  f"{problem.describe()}")
    print(f"\nrank sweep: {RANK_COUNTS}; algorithms: {ALGORITHMS}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from repro.exec.frontend import (add_pool_args, add_sweep_args,
                                     checked, positive_float,
                                     positive_int)

    fraction = checked(float, "in [0, 1]", lambda v: 0 <= v <= 1)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable streamline computation (SC'09 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--dataset", choices=DATASETS, required=True)
    p_run.add_argument("--seeding", choices=SEEDINGS, default="sparse")
    p_run.add_argument("--algorithm", choices=ALGORITHMS,
                       default="hybrid")
    p_run.add_argument("--ranks", type=positive_int, default=32)
    p_run.add_argument("--scale", type=positive_float, default=0.25)
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int,
                       help="paper figure number (5-16)")
    p_fig.add_argument("--dataset", choices=DATASETS, required=True)
    p_fig.add_argument("--scale", type=positive_float, default=0.25)
    p_fig.add_argument("--ranks", type=positive_int, nargs="*",
                       default=None)
    add_pool_args(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sw = sub.add_parser(
        "sweep",
        help="run an evaluation grid with the parallel sweep executor")
    p_sw.add_argument("--dataset", default="astro",
                      help="comma-separated datasets "
                           "(astro,fusion,thermal)")
    p_sw.add_argument("--seeding", default="sparse,dense",
                      help="comma-separated seedings (default both)")
    p_sw.add_argument("--algorithm", default="static,ondemand,hybrid",
                      help="comma-separated algorithms (default all)")
    p_sw.add_argument("--ranks", type=positive_int, nargs="*",
                      default=None,
                      help=f"rank counts (default {list(RANK_COUNTS)})")
    p_sw.add_argument("--scale", type=positive_float, default=0.25)
    p_sw.add_argument("--out", default=None,
                      help="write a deterministic summary JSON here")
    add_sweep_args(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    p_tr = sub.add_parser(
        "trace",
        help="run one scenario with observability and export a timeline")
    p_tr.add_argument("dataset", choices=DATASETS)
    p_tr.add_argument("--seeding", choices=SEEDINGS, default="sparse")
    p_tr.add_argument("--algorithm", choices=ALGORITHMS, default="hybrid")
    p_tr.add_argument("--ranks", type=positive_int, default=16)
    p_tr.add_argument("--scale", type=positive_float, default=0.25)
    p_tr.add_argument("--out", default="traces",
                      help="output directory (default: ./traces)")
    p_tr.add_argument("--sample-interval", type=float, default=0.25,
                      help="gauge sampling cadence in simulated seconds")
    p_tr.add_argument("--width", type=int, default=72,
                      help="text timeline width in columns")
    p_tr.set_defaults(func=_cmd_trace)

    p_an = sub.add_parser(
        "analyze",
        help="critical-path & imbalance analytics for a trace directory")
    p_an.add_argument("trace_dir",
                      help="a `repro trace` output directory "
                           "(contains run.json/spans.jsonl/samples.jsonl)")
    p_an.set_defaults(func=_cmd_analyze)

    p_sl = sub.add_parser(
        "slowest",
        help="top-K slowest streamlines with lifecycle breakdowns")
    p_sl.add_argument("trace_dir",
                      help="a `repro trace` output directory")
    p_sl.add_argument("--top", type=int, default=5,
                      help="how many seeds to report (default 5)")
    p_sl.add_argument("--perfetto", default=None, metavar="PATH",
                      help="also write the reported seeds' lifecycle "
                           "tracks as a Perfetto JSON file")
    p_sl.set_defaults(func=_cmd_slowest)

    p_st = sub.add_parser(
        "streamline",
        help="full cross-rank lifecycle of one streamline")
    p_st.add_argument("trace_dir",
                      help="a `repro trace` output directory")
    p_st.add_argument("sid", type=int, help="streamline (seed) id")
    p_st.add_argument("--perfetto", default=None, metavar="PATH",
                      help="also write the seed's lifecycle track as a "
                           "Perfetto JSON file")
    p_st.set_defaults(func=_cmd_streamline)

    p_df = sub.add_parser(
        "diff",
        help="compare two runs with regression thresholds")
    p_df.add_argument("base", help="baseline: BENCH_*.json or trace dir")
    p_df.add_argument("new", help="candidate: BENCH_*.json or trace dir")
    p_df.add_argument("--threshold", action="append", metavar="NAME=PCT",
                      help="override a gating threshold "
                           "(e.g. --threshold wall_clock=5); repeatable")
    p_df.add_argument("--all", action="store_true",
                      help="show every compared metric, not just gated "
                           "ones and regressions")
    p_df.set_defaults(func=_cmd_diff)

    p_rec = sub.add_parser("recommend",
                           help="apply the §6 decision heuristics")
    p_rec.add_argument("--seeds", type=positive_int, required=True)
    p_rec.add_argument("--spread", type=fraction, required=True,
                       help="fraction of blocks containing seeds (0-1)")
    p_rec.add_argument("--data-fits-memory", action="store_true")
    p_rec.add_argument("--uniform-flow", action="store_true",
                       default=None)
    p_rec.set_defaults(func=_cmd_recommend)

    p_sc = sub.add_parser("scenarios", help="list evaluation scenarios")
    p_sc.add_argument("--scale", type=positive_float, default=1.0)
    p_sc.set_defaults(func=_cmd_scenarios)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "trace") and args.algorithm == "hybrid":
        # One flag checked against another, which argparse cannot do.
        try:
            HybridConfig().n_masters(args.ranks)
        except ValueError as exc:
            parser.error(f"argument --ranks: {exc}")
    try:
        code = args.func(args)
        # Flush inside the guard: a small report fits the pipe buffer, so
        # the write that actually hits the closed pipe is otherwise the
        # interpreter-exit flush — outside any handler, where it prints
        # an "Exception ignored" warning and poisons the exit code.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `repro diff | head`);
        # suppress the traceback and exit like a well-behaved filter.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
