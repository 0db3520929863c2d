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

The executor flags and the driver are ``repro sweep``'s own
(``repro.exec.frontend``): ``--jobs N`` fans the independent runs out
over a persistent pool of worker processes, ``--nodes`` over remote
workers, and results are merged in spec order by
``merge_run_entries``, so the snapshot is **byte-identical for any job
count** (CI ``cmp``s a ``--jobs 2`` run against a serial one).
Runs are dispatched heaviest problem first by a static cost model;
``--dry-run`` prints that order and exits; ``--telemetry DIR`` captures
the executor's host-side event log and utilization report, and exits 1
if the log fails validation.  ``--timeout`` bounds each run in real
seconds; a crashed or timed-out run is recorded as a status-only entry
and the harness exits 1 without losing the rest of the sweep.  The
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
import sys
from pathlib import Path
from typing import List

if __package__ in (None, ""):  # running as a script
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.core.config import ALGORITHMS
from repro.exec import MODE_BENCH, RunSpec, grid_specs, merge_run_entries
from repro.exec.frontend import (add_sweep_args, drive_sweep,
                                 positive_float, positive_int, write_doc)
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
    parser.add_argument("--oom-scale", type=positive_float, default=0.5,
                        help="scale for the OOM probe run")
    parser.add_argument("--ranks", type=positive_int, default=8)
    parser.add_argument("--scale", type=positive_float, default=0.1)
    parser.add_argument("--sample-interval", type=float, default=1.0)
    parser.add_argument("--rank-scaling", default="",
                        help="comma-separated rank counts for an "
                             "astro/dense/hybrid scaling trajectory "
                             "(e.g. 4,8,16); off by default")
    add_sweep_args(parser)
    parser.add_argument("--date", default="unversioned",
                        help="YYYYMMDD stamp for the filename and the "
                             "'generated' field (explicit, so reruns are "
                             "byte-reproducible)")
    parser.add_argument("--out", default="benchmarks",
                        help="output directory (default: benchmarks/)")
    args = parser.parse_args(argv)

    outcomes, code = drive_sweep(args, build_specs(args), "bench_trajectory")
    if outcomes is None:
        return code
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
    path = Path(args.out) / f"BENCH_{args.date}.json"
    write_doc(path, doc)
    print(f"wrote {path} ({len(doc['runs'])} runs)")
    return code


if __name__ == "__main__":
    sys.exit(main())
