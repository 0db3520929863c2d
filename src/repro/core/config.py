"""Algorithm names and the Hybrid Master/Slave tunables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The three parallelization strategies of the paper, in presentation order.
ALGORITHMS: Tuple[str, ...] = ("static", "ondemand", "hybrid")


@dataclass(frozen=True)
class HybridConfig:
    """Tunables of the Hybrid Master/Slave algorithm (paper §4.3).

    Attributes
    ----------
    assignment_quantum:
        N — seeds handed to a slave per assignment ("Initially, each slave
        is assigned N = 10 streamlines").
    overload_limit:
        N_O — a slave is never loaded beyond this many streamlines by
        Send_force/assignment ("we typically choose N_O = 20 x N").
    load_threshold:
        N_L — a slave with at least this many streamlines waiting in the
        same unloaded block loads the block itself rather than shipping
        the streamlines ("we have obtained good results with N_L = 40").
    slaves_per_master:
        W — slave group size per master ("typically one master per W = 32
        slaves").
    locality_bias:
        When a starving slave still has fewer than ``duplication_budget``
        blocks loaded, instruct it to load its most-populated waiting
        block *before* considering Send_force.  This implements §4.3's
        "duplicating blocks when needed" adaptivity: each slave first
        accumulates a bounded working neighbourhood (curves stay put, no
        geometry migrates), and only once that budget is spent does the
        literal §4.3 rule order (ship first) take over.  The budget is
        what balances Figure 6 (I/O near the Static ideal — unbounded
        duplication would degenerate into Load On Demand) against
        Figure 8 (communication an order of magnitude below Static —
        no duplication ships geometry on every crossing).  Disable to
        get the literal rule order (the ablation benchmark compares).
    duplication_budget:
        Blocks each slave may accumulate under ``locality_bias`` before
        the master reverts to ship-first behaviour for it.
    seed:
        RNG seed for the master's random choice in the Send_hint rule.
    """

    assignment_quantum: int = 10
    overload_limit: int = 200
    load_threshold: int = 40
    slaves_per_master: int = 32
    locality_bias: bool = True
    duplication_budget: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.assignment_quantum < 1:
            raise ValueError("assignment_quantum must be >= 1")
        if self.overload_limit < self.assignment_quantum:
            raise ValueError(
                "overload_limit must be >= assignment_quantum "
                f"({self.overload_limit} < {self.assignment_quantum})")
        if self.load_threshold < 1:
            raise ValueError("load_threshold must be >= 1")
        if self.slaves_per_master < 1:
            raise ValueError("slaves_per_master must be >= 1")
        if self.duplication_budget < 0:
            raise ValueError("duplication_budget must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def n_masters(self, n_ranks: int) -> int:
        """Masters for a given total rank count (at least one, and at
        least one slave must remain)."""
        if n_ranks < 2:
            raise ValueError("hybrid needs at least 2 ranks "
                             "(1 master + 1 slave)")
        m = max(1, round(n_ranks / (self.slaves_per_master + 1)))
        return min(m, n_ranks - 1)
