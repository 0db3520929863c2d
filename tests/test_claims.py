"""The §5 claims table and the EXPERIMENTS.md it renders.

``benchmarks/bench_figures.py`` checks each recorded status against the
reproduction grid; these tests tie the table to the paper's figures and
to the committed document, and pin how a status is computed.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.claims import (
    CLAIMS,
    DIRECTION_ONLY,
    GAP,
    REPRODUCED,
    STATUSES,
    Claim,
    evaluate,
)
from repro.analysis.experiments import ExperimentKey, RunSummary
from repro.analysis.report import FIGURE_NUMBERS
from repro.analysis.scenarios import RANK_COUNTS, SEEDINGS
from repro.core.config import ALGORITHMS

DOC = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()


def section(title: str) -> str:
    """The body of the EXPERIMENTS.md section whose heading starts with
    ``title``."""
    (body,) = [part for part in DOC.split("\n## ")
               if part.startswith(title)]
    return body


def test_every_figure_has_a_claim_and_the_table_agrees_with_figure_numbers():
    assert sorted({c.figure for c in CLAIMS}) == list(range(5, 17))
    assert sorted(FIGURE_NUMBERS.values()) == list(range(5, 17))
    for c in CLAIMS:
        assert FIGURE_NUMBERS[(c.dataset, c.metric)] == c.figure
    ids = [c.id for c in CLAIMS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_recorded_row_is_consistent(claim):
    cells = [f"{s}@{n}" for s in claim.seedings for n in RANK_COUNTS]
    assert claim.status in STATUSES
    assert set(claim.seedings) <= set(SEEDINGS)
    assert [c for c in cells if c in claim.failing] == list(claim.failing)
    assert bool(claim.failing) == (claim.status == GAP)
    assert bool(claim.cause) == (claim.status != REPRODUCED)
    assert claim.status != DIRECTION_ONLY or claim.direction
    for expr in (claim.check, claim.direction, claim.measure):
        if expr:
            compile(expr, claim.id, "eval")


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_document_shows_the_recorded_status_and_failing_cells(claim):
    figure = section(f"Figure {claim.figure} —")
    (row,) = [line for line in figure.splitlines()
              if line.startswith(f"| {claim.id} |")]
    *_, status, failing = row.strip(" |").split(" | ")
    assert status == claim.status
    assert failing == (", ".join(claim.failing) or "—")


def test_known_fidelity_gaps_lists_exactly_the_rows_not_reproduced():
    gaps = section("Known fidelity gaps")
    listed = re.findall(r"^\* \*\*(\w+)\*\* .*?`([\w-]+)`, fails at ([^.]*)\.",
                        gaps, re.M)
    assert listed == [(c.id, c.status, ", ".join(c.failing) or "—")
                      for c in CLAIMS if c.status != REPRODUCED]


# --------------------------------------------------------------------- #
# How a status is computed, on a synthetic grid
# --------------------------------------------------------------------- #

def grid(wall, oom=()):
    """An astro grid whose wall clock is ``wall(seeding, algorithm,
    n_ranks)``; ``oom`` lists (seeding, algorithm) pairs that failed."""
    runs = [RunSummary(ExperimentKey("astro", s, a, n),
                       "oom" if (s, a) in oom else "ok",
                       wall_clock=wall(s, a, n))
            for s in SEEDINGS for a in ALGORITHMS for n in RANK_COUNTS]
    return {"astro": runs}


RATIO = Claim(5, "x", "Static takes ~3x the hybrid's time.",
              "measure >= 2", GAP, direction="measure > 1",
              measure="static.wall_clock / hybrid.wall_clock")


def test_status_is_reproduced_direction_only_or_gap():
    top = RANK_COUNTS[-1]

    def static_over_hybrid(ratio_at):
        return grid(lambda s, a, n: ratio_at(s, n) if a == "static" else 1.0)

    assert evaluate(RATIO, static_over_hybrid(lambda s, n: 3.0)).status \
        == REPRODUCED
    out = evaluate(RATIO, static_over_hybrid(
        lambda s, n: 1.5 if n == top else 3.0))
    assert (out.status, out.failing) == (DIRECTION_ONLY, ())
    out = evaluate(RATIO, static_over_hybrid(
        lambda s, n: 0.5 if (s, n) == ("dense", top) else 3.0))
    assert (out.status, out.failing) == (GAP, (f"dense@{top}",))
    assert out.measured[-1] == (f"dense@{top}", 0.5)


def test_a_run_out_of_memory_is_none_and_fails_checks_that_read_it():
    g = grid(lambda s, a, n: 3.0 if a == "static" else 1.0,
             oom={("dense", "static")})
    oom = Claim(5, "x", "Static runs out of memory.", "static is None",
                REPRODUCED, seedings=("dense",))
    assert evaluate(oom, g).status == REPRODUCED
    assert evaluate(oom, grid(lambda s, a, n: 1.0)).status == GAP
    out = evaluate(RATIO, g)
    assert out.failing == tuple(f"dense@{n}" for n in RANK_COUNTS)
    assert out.measured[-1] == (f"dense@{RANK_COUNTS[-1]}", None)
    typo = Claim(5, "x", "-", "hybrid.wal_clock > 0", REPRODUCED)
    with pytest.raises(AttributeError):
        evaluate(typo, grid(lambda s, a, n: 1.0))
