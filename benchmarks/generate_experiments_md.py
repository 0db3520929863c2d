#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the reproduction grid.

Runs the grid every §5 claim is checked on — three datasets x two
seedings x three algorithms x ``RANK_COUNTS`` at scale 1.0 — and writes
EXPERIMENTS.md: each paper figure's claims with their computed status
(``repro.analysis.claims``), its measured table, the "Known fidelity
gaps" list generated from the claims that are not reproduced, and
critical-path context tables.
``REPRO_BENCH_JOBS=N`` fans the runs over N worker processes; the
document is byte-identical for any N.  :func:`render` builds the
document; ``benchmarks/bench_figures.py`` compares it with the committed
file in the process that checks the claims, on the same grid.

Usage:  python benchmarks/generate_experiments_md.py [output.md]
"""

import os
import sys
from pathlib import Path

from repro.analysis.claims import (
    CLAIMS,
    claims_table,
    evaluate,
    gaps_list,
    reproduction_grid,
)
from repro.analysis.report import (
    FIGURE_NUMBERS,
    METRIC_INFO,
    critical_path_context_table,
    figure_table,
)
from repro.analysis.scenarios import DATASETS, RANK_COUNTS, SEED_COUNTS
from repro.core.config import ALGORITHMS
from repro.exec import (
    MODE_BENCH,
    RunSpec,
    SweepExecutor,
    failure_report,
    merge_run_entries,
    text_progress,
)

#: Worker processes for the run fan-out (the document is byte-identical
#: for any value; see docs/performance.md).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
#: Rank count for the critical-path context runs (mid-sweep, where the
#: §5 discussion sits).
CONTEXT_RANKS = 32

HEADER = """# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (§5, Figures 5-16), regenerated on
the simulated machine.  Absolute numbers are not comparable — the paper
ran on a Cray XT5 and this repo runs a priced discrete-event simulation
(see DESIGN.md §2/§7 for the substitutions and the joint seed/rank
scaling) — but the *shapes* are: who wins, who fails, and by roughly what
kind of factor.

* Seed counts at reproduction scale: astro {astro_n}, fusion {fusion_n},
  thermal {thermal_sparse}/{thermal_dense}; simulated ranks {ranks}.
* `OOM` marks the paper's §5.3 outcome: Static Allocation exhausting one
  rank's memory under dense thermal seeding.
* Each figure lists the paper's claims as rows of the claims table
  (`repro.analysis.claims.CLAIMS`).  A row's check is evaluated on every
  cell (`seeding@ranks`) of the grid; its status is `reproduced` when
  every cell holds, `direction-only` when the cells that miss it still
  pass the row's weaker direction (the ordinal form of a claimed
  magnitude, or a bound the reproduction keeps), and `gap` otherwise.
  `pytest benchmarks/bench_figures.py --benchmark-only` asserts each
  computed status and failing-cell list against the recorded one.
* Regenerate with `REPRO_BENCH_JOBS=2 python
  benchmarks/generate_experiments_md.py` (under a minute on two cores;
  every run is computed afresh).

## Known fidelity gaps

Every claim whose status is not `reproduced`, generated from the table:
where it fails, the measured value of a claimed magnitude, and the cause.

{gaps}

"""


CONTEXT_HEADER = """## Critical-path context (`repro analyze`)

End-to-end wall-clock attribution for the dense-seeding scenarios at
{ranks} simulated ranks: the `repro analyze` critical-path walk tiles
`[0, wall]` with the busy segments that gated progress, so each row
explains *where the time went* for the figures above (compute-bound vs
I/O-bound vs communication-bound is the axis the paper's §5 discussion
turns on).  Percentages are shares of that run's wall clock.  The seed
p50/p95 columns are per-streamline birth-to-termination latency
percentiles from the per-seed lifecycle reconstruction (`repro
slowest` breaks the slowest ones down segment by segment).
"""


def critical_path_sections() -> list:
    """One critical-path context table per dataset (dense seeding,
    every algorithm), produced with the sweep executor."""
    specs = [RunSpec(dataset=dataset, seeding="dense", algorithm=algo,
                     n_ranks=CONTEXT_RANKS, mode=MODE_BENCH)
             for dataset in DATASETS for algo in ALGORITHMS]
    executor = SweepExecutor(jobs=JOBS, telemetry=text_progress(sys.stderr))
    outcomes = executor.run(specs)
    report = failure_report(outcomes)
    if report:
        raise SystemExit(report)
    entries = merge_run_entries(outcomes)
    parts = [CONTEXT_HEADER.format(ranks=CONTEXT_RANKS)]
    for dataset in DATASETS:
        parts.append(f"### {dataset} (dense seeding)\n")
        parts.append("```")
        parts.append(critical_path_context_table(
            {name: entry for name, entry in entries.items()
             if name.startswith(f"{dataset}-")}))
        parts.append("```\n")
    return parts


def render() -> str:
    """The whole EXPERIMENTS.md document."""
    grid = reproduction_grid(jobs=JOBS)
    outcomes = {claim.id: evaluate(claim, grid) for claim in CLAIMS}

    parts = [HEADER.format(
        astro_n=SEED_COUNTS[("astro", "sparse")],
        fusion_n=SEED_COUNTS[("fusion", "sparse")],
        thermal_sparse=SEED_COUNTS[("thermal", "sparse")],
        thermal_dense=SEED_COUNTS[("thermal", "dense")],
        ranks=", ".join(str(r) for r in RANK_COUNTS),
        gaps=gaps_list(outcomes))]

    for (dataset, metric), fig in sorted(FIGURE_NUMBERS.items(),
                                         key=lambda kv: kv[1]):
        caption, unit, _ = METRIC_INFO[metric]
        parts.append(f"## Figure {fig} — {dataset}: {caption}\n")
        parts.append(claims_table(fig, outcomes) + "\n")
        parts.append("**Measured:**\n")
        parts.append("```")
        parts.append(figure_table(dataset, grid[dataset], metric))
        parts.append("```\n")

    parts.extend(critical_path_sections())
    return "\n".join(parts)


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("EXPERIMENTS.md")
    out.write_text(render())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
