"""The sweep's one dispatch order: heaviest problem first, by a static
cost model.

The paper's core scaling lesson is that makespan is governed by load
balance, not kernel speed: a long run landing late in the grid leaves
every other worker idle while it finishes.  So every sweep dispatches
longest-expected-first (LPT), with the expected cost taken from
:func:`model_estimate` — spec features only, no measured history.

The specs of one problem (``RunSpec.problem_key``) are planned back to
back, because a worker holds one problem's traced curves at a time and
the first spec of a problem pays for the trace.  Problems are ordered
by descending total cost (ties keep first appearance), a problem's runs
by (descending cost, ascending spec index).  With several slots the
:class:`~repro.exec.executor.Dispatcher` lets a slot keep its problem,
so the plan's order is the order *within* a problem and the order in
which free slots claim problems.

The order changes only *when* runs execute.  The executor merges
outcomes in spec order, so every deterministic artifact is
byte-identical to a serial run — the property the sweep determinism
tests and the CI ``cmp`` gates pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.exec.spec import RunSpec

#: Relative per-seed cost by dataset (astro's braided field takes the
#: most integrator steps per seed; fusion curves are individually long
#: but the seed sets are small and cheap per seed at our resolution).
_DATASET_FACTOR = {"astro": 1.0, "fusion": 0.55, "thermal": 0.8}

#: Relative cost by algorithm: hybrid pays master/slave coordination on
#: top of advection; static idles ranks but simulates every block load.
_ALGO_FACTOR = {"static": 0.9, "ondemand": 0.8, "hybrid": 1.2}

#: Cost per seed.  The units are relative, not seconds: the model is
#: several times off in absolute terms, and only the ranking it gives
#: is used.
_COST_PER_SEED = 0.010

#: Seed count for a (dataset, seeding) pair the scenarios do not know;
#: such a spec fails when it runs, and the failure is its outcome.
_FALLBACK_SEEDS = 1000


def _seed_count(spec: RunSpec) -> float:
    from repro.analysis.scenarios import SEED_COUNTS

    base = SEED_COUNTS.get((spec.dataset, spec.seeding), _FALLBACK_SEEDS)
    return max(4.0, base * spec.scale)


def model_estimate(spec: RunSpec) -> float:
    """Static cost model [relative units]: spec features only."""
    cost = (_seed_count(spec) * _COST_PER_SEED
            * _DATASET_FACTOR.get(spec.dataset, 1.0)
            * _ALGO_FACTOR.get(spec.algorithm, 1.0)
            * (1.0 + spec.n_ranks / 64.0))
    if spec.oom_probe:
        # The probe dies (by design) long before a full run would end.
        cost *= 0.25
    return max(0.01, cost)


@dataclass(frozen=True)
class PlannedRun:
    """One spec's slot in the dispatch plan."""

    idx: int            # position in the original spec list (merge order)
    spec: RunSpec
    cost: float         # model_estimate(spec), relative units


def plan_schedule(specs: Sequence[RunSpec]) -> List[PlannedRun]:
    """The dispatch order for ``specs``: problems by descending total
    cost, a problem's runs by (descending cost, ascending index).
    Deterministic: the same specs always give the same plan."""
    groups: Dict[Any, List[PlannedRun]] = {}  # in first-appearance order
    for idx, spec in enumerate(specs):
        groups.setdefault(spec.problem_key, []).append(
            PlannedRun(idx=idx, spec=spec, cost=model_estimate(spec)))
    batches = list(groups.values())
    for batch in batches:
        batch.sort(key=lambda p: (-p.cost, p.idx))
    batches.sort(key=lambda batch: -sum(p.cost for p in batch))
    return [p for batch in batches for p in batch]


def dry_run_table(plan: Sequence[PlannedRun]) -> str:
    """The planned dispatch order with each run's share of the model
    total (what ``repro sweep --dry-run`` prints).  Nothing runs."""
    total = sum(p.cost for p in plan) or 1.0
    header = f"{'#':>3}  {'run':<34} {'share':>6}"
    lines = [header, "-" * len(header)]
    for pos, p in enumerate(plan):
        lines.append(f"{pos:>3}  {p.spec.name:<34} "
                     f"{p.cost / total * 100.0:>5.1f}%")
    problems = len({p.spec.problem_key for p in plan})
    lines.append("")
    lines.append(f"{len(plan)} runs over {problems} problem(s), heaviest "
                 "first by the static cost model")
    return "\n".join(lines)
