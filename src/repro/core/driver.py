"""Run driver: wires a problem + algorithm + machine into a simulation.

This is the library's main entry point::

    result = run_streamlines(problem, algorithm="hybrid",
                             machine=MachineSpec(n_ranks=512))

It builds the simulated cluster, instantiates the per-rank workers of the
chosen algorithm, runs the event loop to completion, and aggregates the
outcome into a :class:`~repro.core.results.RunResult`.  A simulated
out-of-memory failure (the paper's §5.3 Static-Allocation outcome) is
reported as ``result.status == "oom"`` rather than raised.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.core.base import Worker, partition_contiguous
from repro.core.config import ALGORITHMS, HybridConfig
from repro.core.hybrid_master import HybridMaster
from repro.core.hybrid_slave import HybridSlave
from repro.core.ondemand import OnDemandWorker, seed_chunks
from repro.core.problem import ProblemSpec
from repro.core.results import STATUS_OK, STATUS_OOM, RunResult
from repro.core.static import StaticWorker, seed_claims
from repro.integrate.bank import TrajectoryBank
from repro.obs.recorder import Recorder
from repro.sim.cluster import Cluster
from repro.sim.engine import ProcessFailure, Request
from repro.sim.machine import MachineSpec
from repro.sim.memory import SimOutOfMemory
from repro.sim.trace import Trace
from repro.storage.store import BlockStore

#: Default-store memo: ``(id(field), blocks, cells) -> (field, store)``.
#: A :class:`BlockStore` over an analytic field memoizes *immutable*
#: sampled blocks, so two runs over the same field and decomposition can
#: share one store exactly — which lets a persistent sweep worker keep
#: decoded blocks warm across runs instead of re-sampling per run.  The
#: entry holds a strong reference to the field so its ``id`` can never
#: be recycled while the memo is alive (fields are process-lifetime
#: singletons in practice via the scenario memo).
_STORE_MEMO: Dict[Tuple[int, Tuple[int, int, int], Tuple[int, int, int]],
                  Tuple[Any, BlockStore]] = {}


def default_store(problem: ProblemSpec) -> BlockStore:
    key = (id(problem.field), tuple(problem.blocks_per_axis),
           tuple(problem.cells_per_block))
    hit = _STORE_MEMO.get(key)
    if hit is not None and hit[0] is problem.field:
        return hit[1]
    store = BlockStore(problem.field, problem.decomposition)
    _STORE_MEMO[key] = (problem.field, store)
    return store


def _finishing(worker_ctx, program: Generator[Request, Any, None]
               ) -> Generator[Request, Any, None]:
    """Wrap a rank program to stamp its finish time."""
    yield from program
    worker_ctx.metrics.finish_time = worker_ctx.now


def _build_hybrid(cluster: Cluster, problem: ProblemSpec,
                  store: BlockStore, config: HybridConfig
                  ) -> Tuple[List[Worker], List[HybridMaster]]:
    """Masters on the first ranks, each with a contiguous slave group and
    an equal share of the (block-grouped) seed pool."""
    n_ranks = cluster.spec.n_ranks
    n_masters = config.n_masters(n_ranks)
    master_ranks = list(range(n_masters))
    slave_ranks = list(range(n_masters, n_ranks))

    chunks = seed_chunks(problem, n_masters)
    seed_blocks = problem.seed_blocks

    masters: List[HybridMaster] = []
    slaves: List[Worker] = []
    for mi, mrank in enumerate(master_ranks):
        group = [slave_ranks[i] for i in
                 partition_contiguous(len(slave_ranks), n_masters, mi)]
        pool: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for idx in chunks[mi]:
            sid = int(idx)
            bid = int(seed_blocks[sid])
            pool.setdefault(bid, []).append((sid, problem.seeds[sid]))
        master = HybridMaster(cluster.context(mrank), problem, config,
                              slaves=group, masters=master_ranks,
                              pool=pool)
        masters.append(master)
        for srank in group:
            slaves.append(HybridSlave(cluster.context(srank), problem,
                                      store, master=mrank))
    return slaves, masters


def _register_gauges(obs: Recorder, cluster: Cluster,
                     workers: List[Worker],
                     masters: List[HybridMaster]) -> None:
    """Register the sampled time series for one run.

    Registration order is deterministic (workers by rank, then masters,
    then machine-wide), so two identical runs produce bit-identical
    sample streams.  The callbacks only read state; sampling cannot
    perturb the schedule.
    """
    reg = obs.registry
    for w in workers:
        rank = w.ctx.rank
        reg.add_series("rank.active_lines", rank, w.active_lines)
        reg.add_series("rank.mailbox_depth", rank,
                       lambda c=w.ctx.comm: c.pending)
        reg.add_series("rank.cache_blocks", rank,
                       lambda cache=w.cache: len(cache))
    for m in masters:
        rank = m.ctx.rank
        reg.add_series("master.pool_seeds", rank, m.pool_size)
        reg.add_series("rank.mailbox_depth", rank,
                       lambda c=m.ctx.comm: c.pending)
    reg.add_series("net.bytes_in_flight", -1,
                   lambda net=cluster.network: net.bytes_in_flight)
    # Machine-wide cumulative block traffic: the analyzer derives block
    # efficiency over time, E(t) = (loaded - purged) / loaded, from these
    # two series (paper Eq. 2, but as a trajectory instead of a total).
    metrics = cluster.metrics
    reg.add_series("run.blocks_loaded", -1,
                   lambda ms=metrics: float(sum(m.blocks_loaded
                                                for m in ms.values())))
    reg.add_series("run.blocks_purged", -1,
                   lambda ms=metrics: float(sum(m.blocks_purged
                                                for m in ms.values())))


def run_streamlines(problem: ProblemSpec, algorithm: str = "hybrid",
                    machine: Optional[MachineSpec] = None,
                    hybrid: Optional[HybridConfig] = None,
                    trace: Optional[Trace] = None,
                    obs: Optional[Recorder] = None,
                    store: Optional[object] = None,
                    max_events: Optional[int] = None,
                    bank: Optional[TrajectoryBank] = None) -> RunResult:
    """Compute the problem's streamlines with one parallel strategy.

    Parameters
    ----------
    problem:
        What to compute (field, decomposition, seeds, numerics).
    algorithm:
        "static", "ondemand", or "hybrid" (paper §4.1-4.3).
    machine:
        Simulated machine spec; defaults to the JaguarPF-like preset with
        64 ranks.
    hybrid:
        Hybrid Master/Slave tunables (ignored by the other algorithms).
    store:
        Block provider (anything with ``load(block_id) -> Block``, e.g.
        a :class:`~repro.storage.store.DiskBlockStore` over real block
        files).  Defaults to sampling the problem's analytic field.
    trace:
        Optional enabled :class:`~repro.sim.trace.Trace` to record events.
    obs:
        Optional enabled :class:`~repro.obs.Recorder`: records spans,
        samples per-rank gauges on a fixed cadence, and attributes idle
        time to named wait states.  Enabling it does not change the
        simulated schedule or the resulting metrics.
    max_events:
        Safety bound on simulator events (tests); raises if exceeded.
    bank:
        A :class:`~repro.integrate.bank.TrajectoryBank` of this problem
        and store, kept by the caller across runs so that only the first
        integrates the seeds (the result is the same either way).  By
        default each run builds and drops its own.

    Returns
    -------
    :class:`RunResult` — check ``result.status``: ``"oom"`` reproduces the
    paper's Static-Allocation dense-seed failure instead of raising.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"expected one of {ALGORITHMS}")
    machine = machine or MachineSpec()
    hybrid = hybrid or HybridConfig()
    cluster = Cluster(machine, trace=trace, obs=obs)
    if store is None:
        store = default_store(problem)
    own_bank = bank is None
    if own_bank:
        bank = TrajectoryBank(problem, store)
    elif bank.problem is not problem or bank.store is not store:
        raise ValueError("bank= was built for another problem or store")

    masters: List[HybridMaster] = []
    # Seeds are split among ranks once per run, not once per rank.
    if algorithm == "static":
        claims = seed_claims(problem, machine.n_ranks)
        workers: List[Worker] = [
            StaticWorker(cluster.context(r), problem, store, sids=claims[r])
            for r in range(machine.n_ranks)]
    elif algorithm == "ondemand":
        chunks = seed_chunks(problem, machine.n_ranks)
        workers = [OnDemandWorker(cluster.context(r), problem, store,
                                  sids=chunks[r])
                   for r in range(machine.n_ranks)]
    else:
        workers, masters = _build_hybrid(cluster, problem, store, hybrid)

    # Each curve is integrated once, on the bank's first advect demand,
    # however many ranks (and runs, for a caller's bank) replay it.
    for w in workers:
        w.bank = bank
        cluster.engine.spawn(f"{algorithm}-rank{w.ctx.rank}",
                             _finishing(w.ctx, w.run()), rank=w.ctx.rank)
    for m in masters:
        cluster.engine.spawn(f"hybrid-master{m.ctx.rank}",
                             _finishing(m.ctx, m.run()), rank=m.ctx.rank)
    if obs is not None and obs.enabled:
        _register_gauges(obs, cluster, workers, masters)

    try:
        wall = cluster.run(max_events=max_events)
    except ProcessFailure as failure:
        if isinstance(failure.cause, SimOutOfMemory):
            oom = failure.cause
            return RunResult(
                algorithm=algorithm, status=STATUS_OOM,
                n_ranks=machine.n_ranks, wall_clock=cluster.engine.now,
                rank_metrics=list(cluster.metrics.values()),
                streamlines=[], oom_rank=oom.rank, oom_reason=str(oom),
                master_ranks=[m.ctx.rank for m in masters])
        raise
    finally:
        # Workers sit in reference cycles with their coroutine frames;
        # dropping every reference here frees the bank's tapes and
        # stacked blocks now instead of at some later cyclic collection.
        # A bank of this run's own also reaps its forked tracer here,
        # killing it first if the run ended before the trace did.
        for w in workers:
            w.bank = None
        bank.end_run()
        if own_bank:
            bank.close()
        del bank

    lines = []
    for w in workers:
        lines.extend(w.done_lines)
    for m in masters:
        lines.extend(m.done_lines)
    lines.sort(key=lambda l: l.sid)
    if [l.sid for l in lines] != list(range(problem.n_seeds)):
        raise RuntimeError(
            f"{algorithm}: finished {len(lines)} of "
            f"{problem.n_seeds} streamlines — termination protocol bug")

    return RunResult(
        algorithm=algorithm, status=STATUS_OK, n_ranks=machine.n_ranks,
        wall_clock=wall, rank_metrics=list(cluster.metrics.values()),
        streamlines=lines, master_ranks=[m.ctx.rank for m in masters])
