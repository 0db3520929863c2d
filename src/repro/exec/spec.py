"""Run specifications and outcomes for the parallel sweep executor.

A :class:`RunSpec` is the *identity* of one simulated run — everything a
child process needs to reproduce it exactly.  Specs are frozen,
picklable, and carry no live objects, so the same spec list can be
executed serially in-process or fanned out over a process pool and must
produce identical payloads either way (the determinism contract the
merge step and CI rely on).

A :class:`RunOutcome` pairs a spec with what actually happened: the
payload on success, or a failure status (``timeout`` / ``crashed`` /
``error``) that the merge step reports without losing the rest of the
sweep.  ``elapsed`` is *real* (host) seconds — useful for progress and
speedup reporting, deliberately excluded from deterministic artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

#: Outcome statuses.  ``ok`` means the task returned a payload (the
#: payload itself may describe a *simulated* OOM); ``oom`` means a real
#: :class:`MemoryError` (or a hard child death on an OOM-probe spec);
#: the rest are executor-level failures.
OUTCOME_OK = "ok"
OUTCOME_OOM = "oom"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CRASHED = "crashed"
OUTCOME_ERROR = "error"

#: Task modes a spec can request (see ``repro.exec.worker``).
MODE_SUMMARY = "summary"
MODE_BENCH = "bench"


@dataclass(frozen=True)
class RunSpec:
    """One simulated run of the evaluation matrix.

    ``mode`` selects the child-side task: ``"summary"`` runs the cached
    figure pipeline (:func:`repro.analysis.experiments.run_experiment`)
    and yields a ``RunSummary``; ``"bench"`` runs with a full
    :class:`~repro.obs.recorder.Recorder` and yields the analyzed bench
    entry dict (what ``BENCH_*.json`` stores per run).

    ``isolate`` forces child-process execution even when the executor is
    otherwise serial — the thermal OOM probe sets it (with
    ``oom_probe``) so a *real* MemoryError kills the child, not the
    harness.
    """

    dataset: str
    seeding: str
    algorithm: str
    n_ranks: int
    scale: float = 1.0
    mode: str = MODE_SUMMARY
    sample_interval: float = 1.0
    tag: str = ""
    isolate: bool = False
    oom_probe: bool = False

    @property
    def name(self) -> str:
        """Stable run name (the ``runs`` key in merged artifacts)."""
        base = (f"{self.dataset}-{self.seeding}-{self.algorithm}-"
                f"{self.n_ranks}")
        return f"{base}-{self.tag}" if self.tag else base

    @property
    def problem_key(self) -> Tuple[str, str, float]:
        """``make_problem``'s arguments: specs with equal keys trace the
        same curves, so the plan keeps them together (one trace each)."""
        return (self.dataset, self.seeding, self.scale)

    def __str__(self) -> str:  # progress lines
        return self.name


@dataclass
class RunOutcome:
    """What happened to one spec: payload or failure.

    ``host`` carries the host-telemetry dict
    (:meth:`repro.obs.host.HostProbe.to_dict`) of every run a worker —
    or the inline path — reported, whether or not any sink listens; it
    is ``None`` only for a run that never reported (timed out, or its
    child died).  Like ``elapsed`` it is *real-machine* data,
    deliberately excluded from deterministic artifacts (the merge step
    never reads it).
    """

    spec: RunSpec
    status: str
    payload: Any = None
    error: str = ""
    elapsed: float = 0.0
    host: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK

    @property
    def failed(self) -> bool:
        """Executor-level failure (not a simulated or probed OOM)."""
        return self.status in (OUTCOME_TIMEOUT, OUTCOME_CRASHED,
                               OUTCOME_ERROR)


def grid_specs(datasets: Sequence[str], seedings: Sequence[str],
               algorithms: Sequence[str], rank_counts: Sequence[int],
               scale: float = 1.0, mode: str = MODE_SUMMARY,
               sample_interval: float = 1.0) -> List[RunSpec]:
    """The canonical sweep order: dataset-major, then seeding, then
    algorithm, then rank count — the order every existing serial sweep
    iterates, so merged artifacts keep their layout."""
    return [RunSpec(dataset=d, seeding=s, algorithm=a, n_ranks=r,
                    scale=scale, mode=mode,
                    sample_interval=sample_interval)
            for d in datasets for s in seedings for a in algorithms
            for r in rank_counts]


def failure_report(outcomes: Sequence[RunOutcome]) -> str:
    """Human-readable report of the failed runs of a sweep (empty string
    when everything completed)."""
    failed = [o for o in outcomes if o.failed]
    if not failed:
        return ""
    lines = [f"{len(failed)}/{len(outcomes)} runs failed "
             "(completed runs were kept):"]
    for o in failed:
        detail = f": {o.error}" if o.error else ""
        lines.append(f"  {o.spec.name}: {o.status}{detail}")
    return "\n".join(lines)
