"""Memoized experiment runs and sweeps.

One simulated run yields *all four* of the paper's metrics (wall clock,
I/O time, communication time, block efficiency), so the four figures per
dataset share a single sweep.  ``run_experiment`` memoizes by configuration
— the simulation is deterministic, so a memo hit is exact — letting the
claims benchmark, the EXPERIMENTS.md check and the scaling benchmark
reuse each other's runs within one pytest process.

Summaries (not full results) are memoized: streamline geometry is dropped
after aggregation to keep long benchmark sessions memory-bounded.

The memo lives in the process only (forked sweep workers inherit it);
nothing is persisted, so a run is never judged on numbers an older
version of the code produced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import HybridConfig
from repro.core.results import STATUS_OK, STATUS_OOM, RunResult
from repro.analysis.scenarios import RANK_COUNTS, run_scenario


@dataclass(frozen=True)
class ExperimentKey:
    """Identity of one memoized run."""

    dataset: str
    seeding: str
    algorithm: str
    n_ranks: int
    scale: float = 1.0


@dataclass(frozen=True)
class RunSummary:
    """The per-run numbers the figures plot (plus context)."""

    key: ExperimentKey
    status: str
    wall_clock: float = 0.0
    io_time: float = 0.0
    comm_time: float = 0.0
    compute_time: float = 0.0
    block_efficiency: float = 1.0
    blocks_loaded: int = 0
    blocks_purged: int = 0
    messages: int = 0
    bytes_sent: int = 0
    steps: int = 0
    parallel_efficiency: float = 1.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def metric(self, name: str) -> Optional[float]:
        """Figure metric by name; None when the run failed (OOM)."""
        if not self.ok:
            return None
        if name not in ("wall_clock", "io_time", "comm_time",
                        "block_efficiency"):
            raise ValueError(f"unknown figure metric {name!r}")
        return getattr(self, name)


_CACHE: Dict[ExperimentKey, RunSummary] = {}


def clear_cache() -> None:
    """Drop all memoized runs (tests)."""
    _CACHE.clear()


def summarize(key: ExperimentKey, result: RunResult) -> RunSummary:
    if not result.ok:
        return RunSummary(key=key, status=result.status)
    return RunSummary(
        key=key, status=result.status,
        wall_clock=result.wall_clock,
        io_time=result.io_time,
        comm_time=result.comm_time,
        compute_time=result.compute_time,
        block_efficiency=result.block_efficiency,
        blocks_loaded=result.blocks_loaded,
        blocks_purged=result.blocks_purged,
        messages=result.messages_sent,
        bytes_sent=result.bytes_sent,
        steps=result.total_steps,
        parallel_efficiency=result.parallel_efficiency,
    )


def run_experiment(dataset: str, seeding: str, algorithm: str,
                   n_ranks: int, scale: float = 1.0,
                   hybrid: Optional[HybridConfig] = None) -> RunSummary:
    """Run (or fetch from the memo) one figure configuration.

    Non-default ``hybrid`` configs bypass the memo (they are ablations,
    each run once anyway).
    """
    key = ExperimentKey(dataset=dataset, seeding=seeding,
                        algorithm=algorithm, n_ranks=n_ranks, scale=scale)
    if hybrid is None:
        cached = _CACHE.get(key)
        if cached is not None:
            return cached
    result = run_scenario(dataset, seeding, scale, algorithm, n_ranks,
                          hybrid=hybrid)
    summary = summarize(key, result)
    if hybrid is None:
        _CACHE[key] = summary
    return summary


def sweep_dataset(dataset: str, scale: float = 1.0,
                  rank_counts: Sequence[int] = RANK_COUNTS,
                  algorithms: Sequence[str] = ("static", "ondemand",
                                               "hybrid"),
                  seedings: Sequence[str] = ("sparse", "dense"),
                  jobs: int = 1, timeout: Optional[float] = None,
                  telemetry=None) -> List[RunSummary]:
    """Run the full grid for one dataset (all four figures' data).

    The cells not yet memoized go through a
    :class:`~repro.exec.executor.SweepExecutor` at every ``jobs``
    (``1`` runs them inline, ``0`` means one worker per CPU); each is a
    summary-mode run whose payload is memoized here.  The returned list
    is in grid order, so figure tables are identical for any job count.
    ``telemetry`` — a sink or a list of sinks — is passed to the
    executor.  A real ``MemoryError`` comes back as an ``oom`` summary,
    never memoized: it is a machine-dependent outcome.
    Raises ``RuntimeError`` with a failure report if any run crashed or
    timed out (completed cells stay memoized, so a retry in the same
    process only re-runs the failures).
    """
    keys = [ExperimentKey(dataset=dataset, seeding=seeding,
                          algorithm=algorithm, n_ranks=n_ranks,
                          scale=scale)
            for seeding in seedings
            for algorithm in algorithms
            for n_ranks in rank_counts]
    missing = [k for k in keys if k not in _CACHE]
    oom: Dict[ExperimentKey, RunSummary] = {}
    if missing:
        from repro.exec import (RunSpec, SweepExecutor, default_jobs,
                                failure_report)

        outcomes = SweepExecutor(
            jobs=default_jobs() if jobs <= 0 else jobs, timeout=timeout,
            telemetry=telemetry,
        ).run([RunSpec(**dataclasses.asdict(k)) for k in missing])
        for k, o in zip(missing, outcomes):
            if o.ok:
                _CACHE[k] = o.payload
            else:
                oom[k] = RunSummary(key=k, status=STATUS_OOM)
        if any(o.failed for o in outcomes):
            raise RuntimeError(failure_report(outcomes))
    return [oom.get(k) or _CACHE[k] for k in keys]
