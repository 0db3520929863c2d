"""Figures 5-16: every §5 claim checked on the reproduction grid.

One test per row of ``repro.analysis.claims.CLAIMS``: it runs the grid —
``sweep_dataset`` at scale 1.0 over ``RANK_COUNTS``, once per process,
after which the run memo serves it — and asserts the row's computed
status and failing cells against the recorded ones.  A claim that
breaks fails here, and so does a gap that closes: either way the table,
and EXPERIMENTS.md after ``benchmarks/generate_experiments_md.py``, must
be re-recorded.  A last test renders EXPERIMENTS.md from the same grid
and fails unless it equals the committed file.

``REPRO_BENCH_JOBS=N`` fans the runs over N worker processes (the
results are identical for any N).
"""

import os
from pathlib import Path

import pytest

from benchmarks.generate_experiments_md import render
from repro.analysis.claims import CLAIMS, evaluate, reproduction_grid
from repro.analysis.scenarios import RANK_COUNTS

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def test_only_thermal_dense_static_fails(benchmark):
    """The paper's §5.3 OOM is the grid's only failed run: any other
    failure would read as ``None`` inside the claims, where a row that
    already fails at that cell would not notice it."""
    grid = benchmark.pedantic(reproduction_grid, kwargs={"jobs": JOBS},
                              rounds=1, iterations=1)
    failed = {(dataset, s.key.seeding, s.key.algorithm, s.key.n_ranks)
              for dataset, runs in grid.items() for s in runs if not s.ok}
    assert failed == {("thermal", "dense", "static", n)
                      for n in RANK_COUNTS}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim(benchmark, claim):
    grid = benchmark.pedantic(reproduction_grid, kwargs={"jobs": JOBS},
                              rounds=1, iterations=1)
    outcome = evaluate(claim, grid)
    benchmark.extra_info.update(claim=claim.id, status=outcome.status,
                                failing=list(outcome.failing))
    assert (outcome.status, outcome.failing) == \
        (claim.status, claim.failing), (
            f"claim {claim.id} ({claim.paper}) now reads {outcome.status} "
            f"failing at {outcome.failing}; recorded {claim.status} "
            f"failing at {claim.failing}")


def test_experiments_md_is_the_generated_document(benchmark):
    """Every figure table, claims table and critical-path table of the
    committed EXPERIMENTS.md regenerates to the same bytes."""
    text = benchmark.pedantic(render, rounds=1, iterations=1)
    assert text == EXPERIMENTS_MD.read_text(), (
        "EXPERIMENTS.md is not the generated document; regenerate it "
        "with benchmarks/generate_experiments_md.py")
