"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_figNN_*`` file regenerates one figure of the paper's
evaluation.  All four figures of a dataset plot different metrics of the
*same* sweep, so the sweep result is cached (in memory and on disk as
per-run atomic entries in ``benchmarks/.sweep_cache/``) and only the
first figure of a dataset pays for the simulation; the other three
re-aggregate it.

Environment knobs
-----------------
``REPRO_BENCH_SCALE``   seed-count multiplier (default 1.0 = reproduction
                        scale; use e.g. 0.1 for a quick smoke run)
``REPRO_BENCH_RANKS``   comma-separated rank counts (default "8,16,32,64")
``REPRO_BENCH_JOBS``    worker processes for uncached sweep runs
                        (default 1 = serial; results are identical for
                        any value — see docs/performance.md)
"""

from __future__ import annotations

import os
from typing import List, Sequence

from repro.analysis.experiments import RunSummary, sweep_dataset
from repro.analysis.report import figure_table

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
RANKS: Sequence[int] = tuple(
    int(x) for x in os.environ.get("REPRO_BENCH_RANKS",
                                   "16,32,128").split(","))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def run_figure(benchmark, dataset: str, metric: str) -> List[RunSummary]:
    """Run (or fetch) the dataset sweep and print the figure table."""
    summaries = benchmark.pedantic(
        lambda: sweep_dataset(dataset, scale=SCALE, rank_counts=RANKS,
                              jobs=JOBS),
        rounds=1, iterations=1)
    table = figure_table(dataset, summaries, metric)
    print("\n" + table + "\n")
    benchmark.extra_info["figure"] = table
    benchmark.extra_info["scale"] = SCALE
    # Every configured run must have completed or OOMed deliberately
    # (the thermal/dense/static OOM is the paper's §5.3 result).
    for s in summaries:
        expected_oom = (dataset == "thermal" and s.key.seeding == "dense"
                        and s.key.algorithm == "static")
        if expected_oom:
            assert not s.ok, "thermal/dense/static must OOM (paper §5.3)"
        else:
            assert s.ok, f"unexpected failure: {s.key}"
    return summaries


def by_key(summaries: List[RunSummary], algorithm: str, seeding: str,
           n_ranks: int) -> RunSummary:
    for s in summaries:
        if (s.key.algorithm == algorithm and s.key.seeding == seeding
                and s.key.n_ranks == n_ranks):
            return s
    raise KeyError((algorithm, seeding, n_ranks))
