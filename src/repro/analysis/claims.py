"""The paper's §5 claims as one machine-checked table.

The evaluation (§5, Figures 5-16) is a set of ordinal statements: who
wins, who fails, and by roughly what factor.  :data:`CLAIMS` holds each
one as a row: the paper's words, a check over the reproduction grid, and
the status that grid gave when the row was recorded.  The grid is
:func:`reproduction_grid` — ``sweep_dataset`` at scale 1.0 over
``RANK_COUNTS`` — and a *cell* is one ``seeding@ranks`` of the row's
dataset.

A check is a Python expression, evaluated once per cell, over these
names: ``static``, ``ondemand`` and ``hybrid`` are the cell's
:class:`~repro.analysis.experiments.RunSummary` objects (``None`` for a
run that ran out of memory); ``sparse``/``dense`` and
``astro``/``fusion``/``thermal`` hold the same three runs under another
seeding or dataset at the same rank count; ``measure`` is the value of
the row's ``measure`` expression.  EXPERIMENTS.md prints the expression
itself, so the document says exactly what is checked.

A cell *holds* when ``check`` is true.  A row may give a ``direction``
— a weaker form of the claim: the ordinal form of a claimed magnitude,
or the bound the reproduction keeps where the claim itself fails — and
a cell that misses the check passes on the direction alone.  The row is
``reproduced`` when every cell holds, ``direction-only`` when every
cell at least passes its direction, and a ``gap`` otherwise; its
failing cells are those that pass neither.  ``benchmarks/
bench_figures.py`` asserts every computed status and failing-cell list
against the recorded one, so a gap that closes fails just as a claim
that breaks does.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.experiments import RunSummary, sweep_dataset
from repro.analysis.report import FIGURE_NUMBERS
from repro.analysis.scenarios import DATASETS, RANK_COUNTS, SEEDINGS
from repro.core.config import ALGORITHMS

REPRODUCED = "reproduced"
DIRECTION_ONLY = "direction-only"
GAP = "gap"
STATUSES = (REPRODUCED, DIRECTION_ONLY, GAP)

_FIGURE_KEYS = {fig: key for key, fig in FIGURE_NUMBERS.items()}


@dataclass(frozen=True)
class Claim:
    """One checkable §5 statement (see the module docstring)."""

    figure: int
    letter: str
    paper: str                  # the paper's words
    check: str                  # expression over one grid cell
    status: str                 # recorded: one of STATUSES
    failing: Tuple[str, ...] = ()   # recorded: cells that fail
    cause: str = ""             # one line, for a row not reproduced
    seedings: Tuple[str, ...] = SEEDINGS
    direction: str = ""         # a weaker form of the claim, if any
    measure: str = ""           # the value check/direction compare

    @property
    def id(self) -> str:
        return f"{self.figure}{self.letter}"

    @property
    def dataset(self) -> str:
        return _FIGURE_KEYS[self.figure][0]

    @property
    def metric(self) -> str:
        return _FIGURE_KEYS[self.figure][1]


@dataclass(frozen=True)
class Outcome:
    """A claim's computed status on one grid."""

    status: str
    failing: Tuple[str, ...]
    measured: Tuple[Tuple[str, Optional[float]], ...] = ()


_SHIPPING = (
    "Curves at reproduction scale cross blocks ~40x more often per unit "
    "of compute than at the paper's 100^3 cells per block, and both "
    "algorithms ship geometry on every crossing, which bounds the "
    "asymmetry; with 16-32 blocks per rank, Static absorbs most "
    "crossings internally.")
_DUPLICATION = (
    "The hybrid's block-duplication budget is a count per slave, so its "
    "loads grow with the slave count (ROADMAP.md item 2).")
_IDEAL = "static.block_efficiency == 1 and static.blocks_purged == 0"

#: Every checkable statement of §5, in figure order.
CLAIMS: Tuple[Claim, ...] = (
    Claim(5, "a", "Hybrid Master/Slave is fastest for both seedings.",
          "hybrid.wall_clock < min(static.wall_clock, "
          "ondemand.wall_clock)",
          GAP, ("sparse@32", "sparse@128", "dense@16", "dense@32",
                "dense@128"),
          "Each Load On Demand read blocks its rank, so no read "
          "overlaps compute; it wins because its compute is nearly as "
          "balanced as the hybrid's and no rank waits on another (at "
          "sparse@128 its busiest rank computes 94.6 s and reads for "
          "43.1 s over 219 loads; compute max/mean is 1.82 against the "
          "hybrid's 1.69). The hybrid master does not spread the hot "
          "blocks' curves (ROADMAP.md item 2)."),
    Claim(5, "b", "Hybrid Master/Slave beats Static Allocation for both "
          "seedings; even at the largest processor count the gap for "
          "sparse seeds is a factor of ~3.8.",
          "measure >= 1.9", GAP, ("sparse@128",),
          "The hybrid master does not spread the hot blocks' curves: at "
          "128 ranks its busiest slave computes nearly as much as "
          "Static's busiest rank and waits on I/O besides (ROADMAP.md "
          "item 2).",
          direction="measure > 1",
          measure="static.wall_clock / hybrid.wall_clock"),
    Claim(5, "c", "Load On Demand performs closely to Hybrid "
          "Master/Slave from a time point of view.",
          "max(ondemand.wall_clock, hybrid.wall_clock) <= "
          "2 * min(ondemand.wall_clock, hybrid.wall_clock)",
          REPRODUCED),
    Claim(6, "a", "Load On Demand spends an order of magnitude more time "
          "in I/O than the other two algorithms, for both seedings.",
          "measure >= 5", GAP, ("sparse@128",),
          "At 128 ranks the hybrid's I/O grows to Load On Demand's "
          "order. " + _DUPLICATION,
          direction="measure >= 3",
          measure="ondemand.io_time / max(static.io_time, hybrid.io_time)"),
    Claim(6, "b", "Hybrid Master/Slave performs very close to the Static "
          "Allocation ideal.",
          "measure <= 2", GAP,
          ("sparse@16", "sparse@128", "dense@16", "dense@32", "dense@128"),
          _DUPLICATION + " Static's dense runs read only the blocks "
          "their curves reach.",
          measure="hybrid.io_time / static.io_time"),
    Claim(7, "a", "Static Allocation is ideal: each block is loaded once "
          "and never purged.", _IDEAL, REPRODUCED),
    Claim(7, "b", "Load On Demand is the least efficient: blocks are "
          "loaded and reloaded many times.",
          "ondemand.block_efficiency < min(static.block_efficiency, "
          "hybrid.block_efficiency)", REPRODUCED),
    Claim(7, "c", "Hybrid Master/Slave is close to ideal for both "
          "seedings.",
          "hybrid.block_efficiency >= 0.8", GAP, ("sparse@16", "dense@16"),
          "At 16 ranks a slave's 48-block cache is smaller than the set "
          "of blocks its lines visit, so it purges and reloads; the "
          "paper's sweep starts at 64 cores."),
    Claim(8, "a", "Static Allocation posts ~20x more communication than "
          "the hybrid for sparse seeds, as streamlines are forced to the "
          "processors that own the blocks.",
          "measure >= 10", GAP, ("sparse@16", "sparse@32"), _SHIPPING,
          seedings=("sparse",), direction="measure > 1",
          measure="static.comm_time / hybrid.comm_time"),
    Claim(8, "b", "Static Allocation posts 165-340x more communication "
          "than the hybrid for dense seeds.",
          "measure >= 80", GAP, ("dense@16",), _SHIPPING,
          seedings=("dense",), direction="measure > 1",
          measure="static.comm_time / hybrid.comm_time"),
    Claim(8, "c", "Load On Demand communicates nothing.",
          "ondemand.comm_time == 0", REPRODUCED),
    Claim(9, "a", "Static Allocation and Hybrid Master/Slave perform "
          "nearly identically for both seedings (the field fills the "
          "torus uniformly).",
          "measure <= 1.5", GAP, ("dense@32",),
          "Static's dense runs are compute-imbalanced: the cluster's "
          "field lines stay in a ring of few blocks whose owners carry "
          "them alone.",
          direction="measure < 5",
          measure="max(static.wall_clock, hybrid.wall_clock) / "
                  "min(static.wall_clock, hybrid.wall_clock)"),
    Claim(9, "b", "Load On Demand performs poorly for spatially sparse "
          "seed points.",
          "ondemand.wall_clock > max(static.wall_clock, hybrid.wall_clock)",
          DIRECTION_ONLY, (),
          "Each Load On Demand read blocks its rank, but its compute "
          "is the most balanced of the three (max/mean 1.09-1.23 on "
          "the sparse cells, against the hybrid's 1.17-1.67 and "
          "Static's 1.40-2.14) and no rank waits on another, so the "
          "redundancy shows in its I/O (Figure 10), not its wall "
          "clock.",
          seedings=("sparse",), direction="measure > 0.8",
          measure="ondemand.wall_clock / "
                  "min(static.wall_clock, hybrid.wall_clock)"),
    Claim(9, "c", "Load On Demand is competitive for dense seeds (the "
          "working set fits in memory) and overcomes its I/O penalty "
          "thanks to zero communication cost.",
          "ondemand.wall_clock < min(static.wall_clock, hybrid.wall_clock)",
          REPRODUCED, seedings=("dense",)),
    Claim(10, "a", "Load On Demand performs the most I/O in both "
          "seedings.",
          "ondemand.io_time > max(static.io_time, hybrid.io_time)",
          REPRODUCED),
    Claim(11, "a", "Communication is very high for Static Allocation with "
          "dense seeds: streamlines concentrated in an isolated region "
          "must be communicated to the block owners.",
          "static.comm_time > max(hybrid.comm_time, ondemand.comm_time)",
          REPRODUCED, seedings=("dense",)),
    Claim(11, "b", "Static Allocation communicates less for sparse seeds.",
          "static.comm_time < dense.static.comm_time", REPRODUCED,
          seedings=("sparse",)),
    Claim(12, "a", "Static Allocation remains ideal.", _IDEAL, REPRODUCED),
    Claim(12, "b", "Hybrid block efficiency is lower than in the "
          "astrophysics study: better overall performance dictates more "
          "block replication on this dataset.",
          "hybrid.block_efficiency < astro.hybrid.block_efficiency", GAP,
          ("sparse@16", "sparse@32", "sparse@128", "dense@16", "dense@32",
           "dense@128"),
          "The hybrid's fusion slaves almost never purge; why its master "
          "replicates less here than the paper's is not yet measured "
          "(ROADMAP.md item 2)."),
    Claim(13, "a", "Static Allocation runs out of memory and cannot run "
          "at all with dense seeds.",
          "static is None", REPRODUCED, seedings=("dense",)),
    Claim(13, "b", "Load On Demand outperforms the hybrid with dense "
          "seeds: compute dominates and little data is read.",
          "ondemand.wall_clock < hybrid.wall_clock", REPRODUCED,
          seedings=("dense",)),
    Claim(13, "c", "With sparse seeds all three algorithms finish within "
          "a few seconds of each other.",
          "measure <= 1.5", GAP, ("sparse@16", "sparse@32", "sparse@128"),
          "Static's busiest rank owns the blocks the flow funnels through "
          "toward the outlet and computes ~4x the mean at 16 ranks; the "
          "other two algorithms spread that work.",
          seedings=("sparse",),
          measure="max(static.wall_clock, ondemand.wall_clock, "
                  "hybrid.wall_clock) / min(static.wall_clock, "
                  "ondemand.wall_clock, hybrid.wall_clock)"),
    Claim(14, "a", "Because there are so many streamlines, the I/O time "
          "is hidden altogether behind particle advection.",
          "ondemand.io_time < ondemand.compute_time and "
          "hybrid.io_time < hybrid.compute_time",
          REPRODUCED, seedings=("dense",)),
    Claim(14, "b", "Not much data needs to be read in overall for dense "
          "seeds.",
          "ondemand.io_time < sparse.ondemand.io_time", REPRODUCED,
          seedings=("dense",)),
    Claim(15, "a", "Load On Demand communicates nothing.",
          "ondemand.comm_time == 0", REPRODUCED),
    Claim(15, "b", "Static Allocation communicates the most where it "
          "runs.",
          "static.comm_time > max(hybrid.comm_time, ondemand.comm_time)",
          GAP, ("sparse@16", "sparse@32"), _SHIPPING, seedings=("sparse",)),
    Claim(16, "a", "Static Allocation is ideal where it runs (sparse "
          "seeds; dense is out of memory).", _IDEAL, REPRODUCED,
          seedings=("sparse",)),
)

Grid = Mapping[str, Sequence[RunSummary]]


def reproduction_grid(jobs: int = 1) -> Dict[str, List[RunSummary]]:
    """The grid every claim is checked on: each dataset's
    ``sweep_dataset`` at scale 1.0 over ``RANK_COUNTS``."""
    return {dataset: sweep_dataset(dataset, jobs=jobs)
            for dataset in DATASETS}


def _runs(grid: Grid, dataset: str, seeding: str,
          n_ranks: int) -> SimpleNamespace:
    runs = {a: None for a in ALGORITHMS}
    for s in grid.get(dataset, ()):
        if s.key.seeding == seeding and s.key.n_ranks == n_ranks:
            runs[s.key.algorithm] = s if s.ok else None
    return SimpleNamespace(**runs)


def _eval(expr: str, names: Dict[str, Any]) -> Any:
    return eval(expr, {"__builtins__": {"min": min, "max": max}}, names)


def evaluate(claim: Claim, grid: Grid) -> Outcome:
    """Check ``claim`` on every cell of ``grid``."""
    failing: List[str] = []
    measured: List[Tuple[str, Optional[float]]] = []
    every_cell_holds = True
    for seeding in claim.seedings:
        for n in RANK_COUNTS:
            cell = f"{seeding}@{n}"
            here = _runs(grid, claim.dataset, seeding, n)
            names: Dict[str, Any] = dict(vars(here))
            names.update({s: _runs(grid, claim.dataset, s, n)
                          for s in SEEDINGS})
            names.update({d: _runs(grid, d, seeding, n) for d in DATASETS})
            value = None
            try:
                if claim.measure:
                    value = names["measure"] = _eval(claim.measure, names)
                holds = bool(_eval(claim.check, names))
                passes = holds or bool(
                    claim.direction and _eval(claim.direction, names))
            except (AttributeError, TypeError):
                # A check that reads a run which ran out of memory fails.
                if None not in vars(here).values():
                    raise
                holds = passes = False
            if claim.measure:
                measured.append((cell, value))
            every_cell_holds = every_cell_holds and holds
            if not passes:
                failing.append(cell)
    if every_cell_holds:
        status = REPRODUCED
    else:
        status = GAP if failing else DIRECTION_ONLY
    return Outcome(status, tuple(failing), tuple(measured))


def _show(claim: Claim, expr: str) -> str:
    if claim.measure:
        expr = expr.replace("measure", claim.measure)
    return f"`{expr}`"


def _cells(cells: Sequence[str]) -> str:
    return ", ".join(cells) or "—"


def claims_table(figure: int, outcomes: Mapping[str, Outcome]) -> str:
    """One figure's claims as a markdown table, with their statuses on
    the grid ``outcomes`` was computed from."""
    lines = ["| claim | paper | check | status | fails at |",
             "|---|---|---|---|---|"]
    for claim in CLAIMS:
        if claim.figure != figure:
            continue
        check = _show(claim, claim.check)
        if claim.direction:
            check += f"; direction {_show(claim, claim.direction)}"
        if claim.seedings != SEEDINGS:
            check = f"{'/'.join(claim.seedings)}: {check}"
        outcome = outcomes[claim.id]
        lines.append(f"| {claim.id} | {claim.paper} | {check} | "
                     f"{outcome.status} | {_cells(outcome.failing)} |")
    return "\n".join(lines)


def gaps_list(outcomes: Mapping[str, Outcome]) -> str:
    """One bullet per claim that is not reproduced: where it fails, the
    measured value of a claimed magnitude, and the cause."""
    bullets = []
    for claim in CLAIMS:
        outcome = outcomes[claim.id]
        if outcome.status == REPRODUCED:
            continue
        text = (f"* **{claim.id}** (Figure {claim.figure}, "
                f"{claim.dataset}): `{outcome.status}`, fails at "
                f"{_cells(outcome.failing)}.  Paper: {claim.paper}")
        if outcome.measured:
            values = ", ".join(
                f"{cell} {'OOM' if v is None else f'{v:.2f}'}"
                for cell, v in outcome.measured)
            text += f"  Measured `{claim.measure}`: {values}."
        bullets.append(f"{text}  Cause: {claim.cause}")
    return "\n".join(bullets)
