"""Dispatch-order scheduling for the sweep executor.

The paper's core scaling lesson is that makespan is governed by load
balance, not kernel speed: with FIFO dispatch a long run landing late
in the grid leaves every other worker idle while it finishes.  Since
per-run costs are highly repeatable (the simulation is deterministic),
the classic longest-processing-time (LPT) greedy gets most of the
achievable win: dispatch the expected-longest runs first so the tail of
the sweep is made of short runs.

Policies
--------
``fifo``
    Spec order, the historical behavior.
``lpt``
    Longest expected first, using :class:`~repro.exec.estimate.\
RuntimeEstimator` predictions (history when available, static model
    otherwise).
``auto``
    ``lpt`` when at least :data:`AUTO_HISTORY_THRESHOLD` of the specs
    have measured history, else ``fifo`` (a model-only LPT order is
    still usually fine, but auto stays conservative so a cold cache
    never reorders on guesses alone).

Under every policy the specs of one problem (``RunSpec.problem_key``)
are planned back to back, because a worker holds one problem's traced
curves at a time and the first spec of a problem pays for the trace:
``fifo`` orders the problems by first appearance, ``lpt`` by descending
total prediction with the longest run of each problem first.  With
several slots the :class:`~repro.exec.executor.Dispatcher` lets a slot
keep its problem, so the plan's order is the order *within* a problem
and the order in which free slots claim problems.

Scheduling changes only *when* runs execute.  The executor merges
outcomes in spec order regardless of dispatch order, so every
deterministic artifact is byte-identical for any policy — the property
the schedule-determinism tests and the CI ``cmp`` gate pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.estimate import RuntimeEstimator
from repro.exec.spec import RunSpec

#: Recognized scheduling policies.
SCHEDULE_FIFO = "fifo"
SCHEDULE_LPT = "lpt"
SCHEDULE_AUTO = "auto"
SCHEDULE_POLICIES = (SCHEDULE_FIFO, SCHEDULE_LPT, SCHEDULE_AUTO)

#: ``auto`` resolves to LPT when at least this fraction of the specs
#: have measured history.
AUTO_HISTORY_THRESHOLD = 0.5


@dataclass(frozen=True)
class PlannedRun:
    """One spec's slot in the dispatch plan."""

    idx: int            # position in the original spec list (merge order)
    spec: RunSpec
    seconds: float      # predicted runtime [real seconds]
    source: str         # "history" or "model"


@dataclass(frozen=True)
class SchedulePlan:
    """The resolved dispatch order plus its provenance."""

    policy: str         # what was requested (fifo/lpt/auto)
    effective: str      # what auto resolved to (fifo/lpt)
    coverage: float     # fraction of specs with history
    runs: Tuple[PlannedRun, ...]  # in dispatch order

    @property
    def ordered(self) -> List[Tuple[int, RunSpec]]:
        """``(original index, spec)`` pairs in dispatch order."""
        return [(p.idx, p.spec) for p in self.runs]

    @property
    def total_predicted(self) -> float:
        return sum(p.seconds for p in self.runs)

    def event_fields(self) -> Dict[str, Any]:
        """The ``schedule`` telemetry event payload: policy resolution
        plus the per-run predictions (joined with ``retire`` events by
        the accuracy analyzer for predicted-vs-actual)."""
        return {
            "policy": self.policy,
            "effective": self.effective,
            "coverage": round(self.coverage, 4),
            "plan": [{"run": p.spec.name, "idx": p.idx,
                      "predicted": round(p.seconds, 6),
                      "source": p.source}
                     for p in self.runs],
        }


def plan_schedule(specs: Sequence[RunSpec], policy: str = SCHEDULE_FIFO,
                  estimator: Optional[RuntimeEstimator] = None
                  ) -> SchedulePlan:
    """Resolve a dispatch order for ``specs`` under ``policy``.

    Deterministic: LPT sorts problems by descending total prediction
    and a problem's runs by (descending predicted seconds, ascending
    original index), so equal estimates keep spec order and the same
    inputs always produce the same plan.
    """
    if policy not in SCHEDULE_POLICIES:
        raise ValueError(f"unknown schedule policy {policy!r}; "
                         f"expected one of {SCHEDULE_POLICIES}")
    est = estimator if estimator is not None else RuntimeEstimator()
    planned = []
    for idx, spec in enumerate(specs):
        e = est.estimate(spec)
        planned.append(PlannedRun(idx=idx, spec=spec, seconds=e.seconds,
                                  source=e.source))
    coverage = est.coverage(list(specs))
    effective = policy
    if policy == SCHEDULE_AUTO:
        effective = (SCHEDULE_LPT if coverage >= AUTO_HISTORY_THRESHOLD
                     else SCHEDULE_FIFO)
    groups: Dict[Any, List[PlannedRun]] = {}  # in first-appearance order
    for p in planned:
        groups.setdefault(p.spec.problem_key, []).append(p)
    batches = list(groups.values())
    if effective == SCHEDULE_LPT:
        for batch in batches:
            batch.sort(key=lambda p: (-p.seconds, p.idx))
        batches.sort(key=lambda batch: -sum(p.seconds for p in batch))
    return SchedulePlan(policy=policy, effective=effective,
                        coverage=coverage,
                        runs=tuple(p for batch in batches for p in batch))


def dry_run_table(plan: SchedulePlan, jobs: int = 1) -> str:
    """Human-readable planned dispatch order with estimates (what
    ``repro sweep --dry-run`` prints).  Nothing is executed."""
    header = (f"{'#':>3}  {'run':<34} {'predicted':>10}  {'source':<8}")
    lines = [
        f"schedule {plan.policy}"
        + (f" -> {plan.effective}" if plan.policy != plan.effective
           else "")
        + f" ({plan.coverage * 100.0:.0f}% of runs have history); "
        f"jobs={jobs}",
        header,
        "-" * len(header),
    ]
    for pos, p in enumerate(plan.runs):
        lines.append(f"{pos:>3}  {p.spec.name:<34} "
                     f"{p.seconds:>9.2f}s  {p.source:<8}")
    lines.append("")
    lines.append(f"{len(plan.runs)} runs, predicted total "
                 f"{plan.total_predicted:.1f} s of work"
                 + (f" (~{plan.total_predicted / max(1, jobs):.1f} s "
                    f"ideal makespan on {jobs} workers)"
                    if jobs > 1 else ""))
    return "\n".join(lines)
