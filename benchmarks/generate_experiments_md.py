#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the (cached) figure sweeps.

Runs the full evaluation grid (three datasets x two seedings x three
algorithms x the rank sweep), renders each paper figure as a table, and
writes EXPERIMENTS.md with the paper's expectation next to the measured
outcome.  Uses the same disk cache as the benchmarks, so running this
after ``pytest benchmarks/ --benchmark-only`` is free.

Usage:  python benchmarks/generate_experiments_md.py [output.md]
"""

import os
import sys
from pathlib import Path

from repro.analysis.experiments import sweep_dataset
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

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: Worker processes for the run fan-out (the tables are byte-identical
#: for any value; see docs/performance.md).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
#: Rank count for the critical-path context runs (mid-sweep, where the
#: §5 discussion sits).
CONTEXT_RANKS = 32

#: (dataset, metric) -> what the paper reports for that figure.
PAPER_FINDINGS = {
    ("astro", "wall_clock"):
        "Hybrid Master/Slave is fastest for both seedings; even at the "
        "largest processor count the hybrid-vs-static gap for sparse "
        "seeds is a factor of ~3.8.  Load On Demand performs closely to "
        "the hybrid from a time point of view.",
    ("astro", "io_time"):
        "Hybrid performs very close to the Static Allocation ideal; "
        "Load On Demand spends an order of magnitude more time in I/O "
        "for both seedings.",
    ("astro", "block_efficiency"):
        "Static is ideal (each block loaded once, never purged); Load On "
        "Demand is least efficient (blocks loaded and reloaded many "
        "times); hybrid is close to ideal for both seedings.",
    ("astro", "comm_time"):
        "Static posts ~20x more communication than the hybrid for sparse "
        "seeds, and 165-340x more for dense seeds, as streamlines are "
        "forced to the processors that own the blocks.  Load On Demand "
        "communicates nothing.",
    ("fusion", "wall_clock"):
        "Static and Hybrid perform nearly identically for both seedings "
        "(the field fills the torus uniformly); Load On Demand is poor "
        "for sparse seeds but competitive for dense seeds (the working "
        "set fits in memory).",
    ("fusion", "io_time"):
        "Load On Demand performs the most I/O in both seedings, but for "
        "dense seeds it overcomes the I/O penalty thanks to zero "
        "communication cost.",
    ("fusion", "comm_time"):
        "Communication is very high for Static with dense seeds "
        "(streamlines concentrated in an isolated region must be "
        "communicated to block owners); lower for sparse seeds.",
    ("fusion", "block_efficiency"):
        "Hybrid block efficiency is lower than in the astrophysics study "
        "— better overall performance dictates more block replication on "
        "this dataset — while Static remains ideal.",
    ("thermal", "wall_clock"):
        "Sparse: all three algorithms within a few seconds of each other. "
        "Dense: Static runs out of memory and cannot run at all; Load On "
        "Demand outperforms the hybrid because compute dominates and "
        "little data is read.",
    ("thermal", "io_time"):
        "Load On Demand's dense-seed I/O does not scale but is small in "
        "absolute terms ('not much data needs to be read in overall'), "
        "so it hides entirely behind particle advection.",
    ("thermal", "comm_time"):
        "Load On Demand communicates nothing; Static communicates the "
        "most where it runs.",
    ("thermal", "block_efficiency"):
        "Static ideal where it runs (sparse only; dense is OOM).",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (§5, Figures 5-16), regenerated on
the simulated machine.  Absolute numbers are not comparable — the paper
ran on a Cray XT5 and this repo runs a priced discrete-event simulation
(see DESIGN.md §2/§7 for the substitutions and the joint seed/rank
scaling) — but the *shapes* are: who wins, who fails, and by roughly what
kind of factor.

* Scale: seed counts x{scale} of reproduction scale
  (astro {astro_n}, fusion {fusion_n}, thermal {thermal_sparse}/{thermal_dense});
  simulated ranks {ranks}.
* `OOM` marks the paper's §5.3 outcome: Static Allocation exhausting one
  rank's memory under dense thermal seeding.
* Regenerate with `python benchmarks/generate_experiments_md.py`
  (or `pytest benchmarks/ --benchmark-only`, which shares the cache).

## Known fidelity gaps

* **Figure 8 / 11 / 15 magnitudes.** The paper reports Static posting
  ~20x (sparse) to 165-340x (dense) more communication time than the
  hybrid.  Here the hybrid's advantage is a small factor that grows with
  rank count (clearly visible at 128 ranks) rather than orders of
  magnitude: at reproduction scale curves cross blocks ~40x more often
  per unit of simulated compute than at the paper's 100^3-cells-per-block
  resolution, so per-crossing geometry shipping — which both algorithms
  pay — bounds the achievable asymmetry.  The *direction* (Static > Hybrid,
  Load On Demand = 0) reproduces; see DESIGN.md §4 and
  docs/algorithms.md ("locality bias") for the analysis.
* **Figure 5 / 9 / 13 ordering.** The paper's headline is inverted for
  sparse seeds at the top of the rank sweep: in the Figure 5 table below,
  Static finishes astro sparse at 128 ranks before the hybrid does, where
  the paper has the hybrid ~3.8x faster.  The hybrid wins for dense seeds
  at every rank count and for sparse seeds at the smaller ones.  The
  measured cause is a hybrid master that does not spread the hot blocks'
  curves (ROADMAP.md item 2).  Load On Demand is time-competitive
  everywhere (the paper itself notes it "performs closely to Hybrid
  Master/Slave from a time point of view" on astro and wins outright in
  the thermal dense case §5.3).  Our simulated Load On Demand overlaps redundant reads
  with computation more aggressively than the 2009 implementation, so
  its wall-clock penalty for sparse seeds is smaller than the paper's —
  its I/O bill (Figures 6/10/14) is where the redundancy shows, just as
  the paper emphasises.
* **Hybrid at the top of the rank sweep.** The hybrid's per-slave block
  duplication grows with slave count; at 128 ranks its I/O total rises
  visibly above Static's (astro) while its communication advantage
  widens.  The paper's sweep (64-512 cores at 10x the seed count) sits
  mid-regime, where both hold simultaneously.

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
                     n_ranks=CONTEXT_RANKS, scale=SCALE, mode=MODE_BENCH)
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


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("EXPERIMENTS.md")
    # Sweep order: cheap/critical first so partial runs still cover the
    # headline results (thermal carries the §5.3 OOM).
    sweeps = {ds: sweep_dataset(ds, scale=SCALE, jobs=JOBS) for ds in
              ("thermal", "astro", "fusion")}

    parts = [HEADER.format(
        scale=SCALE,
        astro_n=int(SEED_COUNTS[("astro", "sparse")] * SCALE),
        fusion_n=int(SEED_COUNTS[("fusion", "sparse")] * SCALE),
        thermal_sparse=int(SEED_COUNTS[("thermal", "sparse")] * SCALE),
        thermal_dense=int(SEED_COUNTS[("thermal", "dense")] * SCALE),
        ranks=", ".join(str(r) for r in RANK_COUNTS))]

    for (dataset, metric), fig in sorted(FIGURE_NUMBERS.items(),
                                         key=lambda kv: kv[1]):
        caption, unit, _ = METRIC_INFO[metric]
        parts.append(f"## Figure {fig} — {dataset}: {caption}\n")
        parts.append("**Paper:** " + PAPER_FINDINGS[(dataset, metric)]
                     + "\n")
        parts.append("**Measured:**\n")
        parts.append("```")
        parts.append(figure_table(dataset, sweeps[dataset], metric))
        parts.append("```\n")

    parts.extend(critical_path_sections())

    out.write_text("\n".join(parts))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
