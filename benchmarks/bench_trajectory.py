"""Benchmark-trajectory harness: canonical scenarios -> BENCH_<date>.json.

The figure benchmarks answer "does the reproduction match the paper?";
this harness answers "did *this commit* change performance?".  It runs
one canonical sparse and one canonical dense scenario per algorithm with
full observability, analyzes each run (critical-path breakdown,
imbalance, handoff diagnostics), and writes a schema-versioned snapshot
that ``repro diff`` can gate against:

    PYTHONPATH=src python benchmarks/bench_trajectory.py \
        --scale 0.1 --ranks 8 --date 20260806 --out benchmarks
    PYTHONPATH=src python -m repro diff benchmarks/BENCH_20260806.json \
        BENCH_new.json

Every run in the matrix is independent, so ``--jobs N`` fans them out
over a persistent pool of worker processes (``repro.exec.SweepExecutor``);
results are merged in spec order, so the snapshot is **byte-identical
for any job count** (CI ``cmp``s a ``--jobs 2`` run against a serial
one).  Runs are dispatched heaviest problem first by a static cost
model; ``--dry-run`` prints that order and exits; ``--telemetry DIR``
captures the executor's host-side event log and reports.
``--timeout`` bounds each run in real seconds; a crashed or timed-out
run is recorded as a status-only entry and the harness exits 1
without losing the rest of the sweep.  The
thermal OOM probe always executes in an isolated one-shot child
process: a *real* MemoryError kills the child and is reported as the
same gated ``oom`` status the simulated probe commits.

The simulation is deterministic and the JSON is emitted with sorted keys
and no wall-time stamps (the ``generated`` field comes from ``--date``),
so identical runs produce byte-identical files — the committed baseline
is diffable, reviewable, and regenerable.

``--rank-scaling 4,8,16`` appends a rank-scaling trajectory of the
astro/dense/hybrid scenario (one run per rank count) so ``repro diff``
gates scaling behavior, not just single-point performance; the
committed extended baseline ``BENCH_20260806_all.json`` carries it.

Schema (``BENCH_SCHEMA`` = 1)::

    {"schema": 1,
     "generated": "<--date>",
     "config": {"dataset": ..., "seedings": [...], "algorithms": [...],
                "ranks": N, "scale": S, "sample_interval": dt},
     "runs": {"<dataset>-<seeding>-<algorithm>-<ranks>": {
         "wall_clock": ..., "io_time": ..., "comm_time": ...,
         "block_efficiency": ..., "parallel_efficiency": ...,
         "critical_path": {"compute": ..., "io": ..., "comm": ...,
                           "idle": ...},
         "participation_ratio": ..., "pingpong_count": ..., ...}}}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

if __package__ in (None, ""):  # running as a script
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.core.config import ALGORITHMS
from repro.exec import (
    MODE_BENCH,
    RunSpec,
    SweepExecutor,
    failure_report,
    grid_specs,
    merge_run_entries,
    parse_fleet,
    run_spec,
    text_progress,
)
from repro.obs import jsonable
from repro.obs.diff import BENCH_SCHEMA

#: The canonical trajectory seedings: one sparse (the regime every
#: algorithm handles) and one dense (the contention regime that
#: separates them), run per requested dataset (``--dataset`` accepts a
#: comma-separated list; the committed astro baseline uses the default).
SEEDINGS = ("sparse", "dense")

#: The rank-scaling trajectory scenario (``--rank-scaling``): dense
#: astro seeding under the hybrid algorithm — the configuration whose
#: load-balancing dynamics are most rank-sensitive.
SCALING_SCENARIO = ("astro", "dense", "hybrid")


def bench_one(dataset: str, seeding: str, algorithm: str, ranks: int,
              scale: float, sample_interval: float) -> dict:
    """Run one scenario with observability and return its bench entry
    (kept as the single-run entry point; the sweep goes through
    ``repro.exec``)."""
    return run_spec(RunSpec(dataset=dataset, seeding=seeding,
                            algorithm=algorithm, n_ranks=ranks,
                            scale=scale, mode=MODE_BENCH,
                            sample_interval=sample_interval))


def build_specs(args: argparse.Namespace) -> List[RunSpec]:
    """The harness matrix, in merge order: the dataset grid, then the
    isolated thermal OOM probe, then the rank-scaling trajectory."""
    datasets = [d for d in args.dataset.split(",") if d]
    specs = grid_specs(datasets, SEEDINGS, ALGORITHMS, [args.ranks],
                       scale=args.scale, mode=MODE_BENCH,
                       sample_interval=args.sample_interval)
    # The thermal/dense/static working set exceeds one rank's memory at
    # larger scales — the paper's parallelize-over-data pathology.  When
    # the thermal scenarios are benchmarked, probe it and commit the
    # expected "oom" status so `repro diff` gates on it staying that way
    # (an ok->oom flip on any other run is a regression; oom->ok here
    # would mean the memory model went soft).
    if "thermal" in datasets and args.oom_probe:
        specs.append(RunSpec(
            dataset="thermal", seeding="dense", algorithm="static",
            n_ranks=args.ranks, scale=args.oom_scale, mode=MODE_BENCH,
            sample_interval=args.sample_interval, tag="oomprobe",
            isolate=True, oom_probe=True))
    if args.rank_scaling:
        have = {s.name for s in specs}
        dataset, seeding, algorithm = SCALING_SCENARIO
        for ranks in parse_rank_scaling(args.rank_scaling):
            spec = RunSpec(dataset=dataset, seeding=seeding,
                           algorithm=algorithm, n_ranks=ranks,
                           scale=args.scale, mode=MODE_BENCH,
                           sample_interval=args.sample_interval)
            if spec.name not in have:  # grid may already cover one point
                specs.append(spec)
                have.add(spec.name)
    return specs


def parse_rank_scaling(text: str) -> List[int]:
    try:
        ranks = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise SystemExit(f"--rank-scaling {text!r} is not a "
                         "comma-separated list of rank counts")
    if not ranks or any(r <= 0 for r in ranks):
        raise SystemExit(f"--rank-scaling {text!r}: rank counts must be "
                         "positive")
    return ranks


def parse_jobs(text: str) -> int:
    """``--jobs`` values: a non-negative int, or ``auto`` (= 0 = one
    worker per CPU)."""
    if text.strip().lower() == "auto":
        return 0
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid jobs value {text!r}: expected an integer or 'auto'")
    if value < 0:
        raise argparse.ArgumentTypeError("jobs must be >= 0")
    return value


def build_doc(args: argparse.Namespace) -> tuple:
    """Run the matrix and merge the snapshot; returns (doc, outcomes)."""
    specs = build_specs(args)
    try:
        nodes = parse_fleet(args.nodes, args.nodes_file)
    except ValueError as exc:
        raise SystemExit(f"bench_trajectory: {exc}")
    telemetry_dir = Path(args.telemetry) if args.telemetry else None
    sinks = [text_progress()]
    if telemetry_dir is not None:
        from repro.exec import JsonlTelemetry

        telemetry_dir.mkdir(parents=True, exist_ok=True)
        sinks.append(JsonlTelemetry(telemetry_dir / "events.jsonl"))
    executor = SweepExecutor(jobs=args.jobs, timeout=args.timeout or None,
                             telemetry=sinks, nodes=nodes,
                             remote_template=args.remote_template)
    try:
        outcomes = executor.run(specs)
    finally:
        if telemetry_dir is not None:
            sinks[-1].close()
    if telemetry_dir is not None:
        from repro.exec import load_events, telemetry_report

        events = load_events(telemetry_dir / "events.jsonl")
        (telemetry_dir / "utilization.txt").write_text(
            telemetry_report(events) + "\n", encoding="utf-8")
    doc = {
        "schema": BENCH_SCHEMA,
        "generated": args.date,
        "config": {
            "dataset": args.dataset,
            "seedings": list(SEEDINGS),
            "algorithms": list(ALGORITHMS),
            "ranks": args.ranks,
            "scale": args.scale,
            "sample_interval": args.sample_interval,
        },
        "runs": merge_run_entries(outcomes),
    }
    if any(o.spec.oom_probe for o in outcomes):
        doc["config"]["oom_probe_scale"] = args.oom_scale
    if args.rank_scaling:
        doc["config"]["rank_scaling"] = parse_rank_scaling(
            args.rank_scaling)
    return doc, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="canonical-scenario benchmark snapshot for repro diff")
    parser.add_argument("--dataset", default="astro",
                        help="dataset, or comma-separated list "
                             "(astro,fusion,thermal)")
    parser.add_argument("--oom-probe", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="when thermal is benchmarked, also run the "
                             "thermal/dense/static scenario at "
                             "--oom-scale, whose expected status is 'oom'")
    parser.add_argument("--oom-scale", type=float, default=0.5,
                        help="scale for the OOM probe run")
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--sample-interval", type=float, default=1.0)
    parser.add_argument("--rank-scaling", default="",
                        help="comma-separated rank counts for an "
                             "astro/dense/hybrid scaling trajectory "
                             "(e.g. 4,8,16); off by default")
    parser.add_argument("--jobs", type=parse_jobs, default=1,
                        metavar="N",
                        help="worker processes for the run fan-out "
                             "(default 1 = serial; 0 or 'auto' = one "
                             "per CPU); output is byte-identical for "
                             "any value")
    parser.add_argument("--nodes", default=None, metavar="SPEC",
                        help="distribute runs over remote nodes: "
                             "comma-separated host:slots (bare host = "
                             "1 slot; 'local' = in-process slots); the "
                             "snapshot stays byte-identical")
    parser.add_argument("--nodes-file", default=None, metavar="PATH",
                        help="read node specs from PATH (one per "
                             "line; # comments); combined with --nodes")
    parser.add_argument("--remote-template", default=None,
                        metavar="TEMPLATE",
                        help="command template launching the remote "
                             "worker on {host} (default: ssh batch "
                             "mode)")
    parser.add_argument("--timeout", type=float, default=0.0,
                        help="per-run limit in real seconds "
                             "(0 = unlimited)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the planned dispatch order (heaviest "
                             "problem first) and exit without running "
                             "anything")
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="capture the executor's host-side event "
                             "log (events.jsonl) and utilization "
                             "report into DIR; never affects the "
                             "snapshot bytes")
    parser.add_argument("--date", default="unversioned",
                        help="YYYYMMDD stamp for the filename and the "
                             "'generated' field (explicit, so reruns are "
                             "byte-reproducible)")
    parser.add_argument("--out", default="benchmarks",
                        help="output directory (default: benchmarks/)")
    args = parser.parse_args(argv)

    if args.dry_run:
        from repro.exec import dry_run_table, plan_schedule

        print(dry_run_table(plan_schedule(build_specs(args))))
        return 0

    doc, outcomes = build_doc(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{args.date}.json"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(jsonable(doc), sort_keys=True,
                           separators=(",", ":")))
        f.write("\n")
    print(f"wrote {path} ({len(doc['runs'])} runs)")
    report = failure_report(outcomes)
    if report:
        print(report, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
