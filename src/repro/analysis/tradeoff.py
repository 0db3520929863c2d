"""First-order analytical cost model of the three algorithms.

Section 6 of the paper gives *qualitative* guidance; this module makes the
underlying arithmetic explicit.  Given a problem's transport statistics
(how many blocks curves touch, how often they cross) and a machine cost
model, it predicts each algorithm's I/O volume, communication volume, and
serial compute — the quantities behind Figures 5-16 — without running the
simulation.

The predictions are first-order (no queueing, no scheduling dynamics) and
are validated against the simulator in the test suite to within a small
factor.  They exist so users can ask "which algorithm, and why?" and get
numbers, not just the §6 rules of thumb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.problem import ProblemSpec
from repro.fields.sampling import sample_field
from repro.integrate.config import IntegratorConfig
from repro.integrate.single import integrate_single
from repro.sim.machine import MachineSpec
from repro.storage.costmodel import DataCostModel


@dataclass(frozen=True)
class TransportStats:
    """Measured transport statistics of a (sampled) seed subset."""

    n_seeds: int
    mean_steps: float
    mean_blocks_visited: float
    mean_block_crossings: float
    distinct_blocks_touched: int
    mean_vertices: float

    @staticmethod
    def measure(problem: ProblemSpec, sample: int = 32,
                seed: int = 0) -> "TransportStats":
        """Integrate a small random subset of seeds serially and measure.

        This is deliberately a *measurement*, not a model: transport is
        data-dependent (the paper's core observation), so the only honest
        estimator is tracing a few curves.
        """
        if sample < 1:
            raise ValueError("sample must be >= 1")
        rng = np.random.default_rng(seed)
        n = min(sample, problem.n_seeds)
        idx = rng.choice(problem.n_seeds, size=n, replace=False)
        seeds = problem.seeds[np.sort(idx)]
        lines = integrate_single(problem.field, problem.decomposition,
                                 seeds, problem.integ)
        steps = [l.steps for l in lines]
        verts = [l.n_vertices for l in lines]
        visited = []
        crossings = []
        touched = set()
        for l in lines:
            bids = problem.decomposition.locate(l.vertices())
            bids = bids[bids >= 0]
            visited.append(len(np.unique(bids)))
            crossings.append(int(np.count_nonzero(np.diff(bids))))
            touched.update(int(b) for b in np.unique(bids))
        return TransportStats(
            n_seeds=problem.n_seeds,
            mean_steps=float(np.mean(steps)),
            mean_blocks_visited=float(np.mean(visited)),
            mean_block_crossings=float(np.mean(crossings)),
            distinct_blocks_touched=len(touched),
            mean_vertices=float(np.mean(verts)),
        )


@dataclass(frozen=True)
class CostPrediction:
    """First-order predicted totals for one algorithm."""

    algorithm: str
    blocks_read: float
    io_time: float
    messages: float
    comm_bytes: float
    comm_time: float
    compute_time: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "blocks_read": self.blocks_read,
            "io_time": self.io_time,
            "messages": self.messages,
            "comm_bytes": self.comm_bytes,
            "comm_time": self.comm_time,
            "compute_time": self.compute_time,
        }


def predict_costs(problem: ProblemSpec, machine: MachineSpec,
                  stats: Optional[TransportStats] = None,
                  sample: int = 32) -> Dict[str, CostPrediction]:
    """Predict each algorithm's first-order resource totals.

    Model (all machine-wide totals, in simulated seconds):

    * compute: total steps x seconds_per_step — identical across
      algorithms (parallelization never changes the numerics);
    * Static: reads = blocks touched anywhere (each exactly once);
      every inter-rank crossing ships the curve with its geometry;
    * Load On Demand: every rank reads the union of blocks its curves
      visit; no messages.  Cache thrash is approximated by re-reading
      when a rank's footprint exceeds its cache;
    * Hybrid: reads ~ per-slave footprints bounded by the duplication
      budget; crossings beyond the cached set ship curves.
    """
    stats = stats or TransportStats.measure(problem, sample=sample)
    cost = problem.cost_model
    n = problem.n_seeds
    n_ranks = machine.n_ranks
    block_read_time = machine.io_latency \
        + machine.read_service_time(cost.block_nbytes)
    curve_bytes = cost.streamline_wire_nbytes(
        int(stats.mean_vertices / 2))  # geometry at the average crossing

    total_steps = n * stats.mean_steps
    compute = total_steps * machine.seconds_per_step

    def comm_time(messages: float, nbytes: float) -> float:
        # Sender post + receiver drain + packing.
        return messages * 2 * machine.comm_post_overhead \
            + nbytes * machine.comm_post_per_byte

    # ---- Static Allocation ------------------------------------------ #
    static_reads = float(stats.distinct_blocks_touched)
    inter_rank = 1.0 - 1.0 / n_ranks  # random-ownership approximation
    static_msgs = n * stats.mean_block_crossings * inter_rank
    static_bytes = static_msgs * curve_bytes
    static = CostPrediction(
        "static", static_reads, static_reads * block_read_time,
        static_msgs, static_bytes,
        comm_time(static_msgs, static_bytes), compute)

    # ---- Load On Demand ---------------------------------------------- #
    per_rank_curves = n / n_ranks
    # Footprint of a rank's curves, with overlap between curves of the
    # same rank (grouped seeds): coupon-collector style union bound.
    per_rank_footprint = min(
        stats.distinct_blocks_touched,
        per_rank_curves * stats.mean_blocks_visited ** 0.85)
    cache = machine.cache_capacity(cost.block_nbytes)
    thrash = max(1.0, per_rank_footprint / cache) ** 0.5
    od_reads = n_ranks * per_rank_footprint * thrash
    ondemand = CostPrediction(
        "ondemand", od_reads, od_reads * block_read_time,
        0.0, 0.0, 0.0, compute)

    # ---- Hybrid ------------------------------------------------------ #
    from repro.core.config import HybridConfig

    cfg = HybridConfig()
    n_slaves = max(1, n_ranks - cfg.n_masters(max(n_ranks, 2)))
    # The master's locality budget (HybridMaster._budget); a slave
    # still holds the block it works in when that budget is 0.
    budget = max(1, min(cfg.duplication_budget, cache - 1))
    per_slave_footprint = min(per_rank_footprint, budget)
    hy_reads = n_slaves * per_slave_footprint
    covered = min(1.0, per_slave_footprint
                  / max(stats.mean_blocks_visited, 1.0))
    hy_ship = n * stats.mean_block_crossings * max(0.0, 1.0 - covered)
    control = 4.0 * n / cfg.assignment_quantum \
        + 3.0 * n * stats.mean_block_crossings * max(0.0, 1.0 - covered)
    hy_bytes = hy_ship * curve_bytes
    hybrid = CostPrediction(
        "hybrid", hy_reads, hy_reads * block_read_time,
        hy_ship + control, hy_bytes,
        comm_time(hy_ship + control, hy_bytes), compute)

    return {"static": static, "ondemand": ondemand, "hybrid": hybrid}
