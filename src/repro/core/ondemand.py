"""Load On Demand (paper §4.2).

Parallelization across *streamlines*: the seed points are split evenly among
the ranks (grouped by initial block to enhance data locality) and each rank
integrates its own streamlines to termination, loading whatever blocks it
needs into its LRU cache.  To minimize I/O, a rank always integrates every
advanceable streamline to the edge of its loaded blocks and only reads a new
block when no in-memory work remains.  There is no communication at all;
each rank terminates independently.

Strengths and weaknesses reproduced from the paper: perfect compute balance
over streamlines and zero communication, but redundant I/O — many ranks load
the same blocks — which makes the algorithm I/O-bound when curves traverse
widely (order-of-magnitude more I/O time in Figures 6/10/14).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence

import numpy as np

from repro.core.base import Worker, partition_contiguous
from repro.core.problem import ProblemSpec
from repro.integrate.streamline import Status, Streamline
from repro.sim.cluster import RankContext
from repro.sim.engine import Request
from repro.storage.store import BlockStore


def seeds_grouped_by_block(problem: ProblemSpec) -> np.ndarray:
    """Seed indices sorted by initial block id (stable).

    This is the "grouped by block to enhance data locality" split: a
    contiguous chunk of this ordering gives each rank seeds that share
    blocks.  Out-of-domain seeds (block -1) sort first.
    """
    return np.argsort(problem.seed_blocks, kind="stable")


def seed_chunks(problem: ProblemSpec, n_parts: int) -> List[np.ndarray]:
    """:func:`seeds_grouped_by_block` split into ``n_parts`` contiguous
    chunks: one sort serves every rank of a run (Load On Demand's ranks,
    or the hybrid's masters)."""
    order = seeds_grouped_by_block(problem)
    chunks = []
    for part in range(n_parts):
        chunk = partition_contiguous(problem.n_seeds, n_parts, part)
        chunks.append(order[chunk.start:chunk.stop])
    return chunks


class OnDemandWorker(Worker):
    """One rank of the Load On Demand algorithm."""

    def __init__(self, ctx: RankContext, problem: ProblemSpec,
                 store: BlockStore, sids: Sequence[int]) -> None:
        super().__init__(ctx, problem, store)
        #: This rank's :func:`seed_chunks` entry (one sort serves every
        #: rank of a run).
        self._sids = sids
        #: Streamlines waiting in not-currently-loaded blocks.
        self.waiting: Dict[int, List[Streamline]] = {}
        #: Streamlines in loaded blocks, ready to advance.
        self.ready: Dict[int, List[Streamline]] = {}

    def _setup_seeds(self) -> None:
        seed_blocks = self.problem.seed_blocks
        for idx in self._sids:
            sid = int(idx)
            bid = int(seed_blocks[sid])
            line = Streamline(sid=sid, seed=self.problem.seeds[sid],
                              block_id=bid)
            self.own_line(line)
            if bid < 0:
                line.terminate(Status.OUT_OF_BOUNDS)
                self.done_lines.append(line)
                self.ctx.metrics.streamlines_completed += 1
                if self.ctx.obs.enabled:
                    self.ctx.obs.marker(self.ctx.rank, "seed.term", sid=sid)
            else:
                self._enqueue(line)

    def _enqueue(self, line: Streamline) -> None:
        target = self.ready if self.has_block(line.block_id) \
            else self.waiting
        target.setdefault(line.block_id, []).append(line)

    def active_lines(self) -> int:
        return (sum(len(lines) for lines in self.ready.values())
                + sum(len(lines) for lines in self.waiting.values()))

    def _next_block_to_load(self) -> int:
        """The unloaded block with the most waiting streamlines
        (ties broken by lowest id for determinism)."""
        return max(self.waiting,
                   key=lambda b: (len(self.waiting[b]), -b))

    def run(self) -> Generator[Request, Any, None]:
        self._setup_seeds()
        while self.ready or self.waiting:
            if not self.ready:
                # No in-memory work left: now (and only now) do I/O.
                bid = self._next_block_to_load()
                yield from self.ensure_block(
                    bid, waiting_lines=self.waiting[bid])
                self.ready[bid] = self.waiting.pop(bid)
                # Other waiting blocks may already be resident (loaded
                # earlier, still cached); promote them too.
                for other in [b for b in self.waiting
                              if self.has_block(b)]:
                    self.ready.setdefault(other, []).extend(
                        self.waiting.pop(other))
            # Advance every ready line across all loaded blocks at once
            # ("integrate all streamlines to the edge of the loaded
            # blocks").
            batch = []
            for lines in self.ready.values():
                batch.extend(lines)
            self.ready.clear()
            result, demoted = yield from self.advect_pool(batch)
            for line in demoted:
                self.waiting.setdefault(line.block_id, []).append(line)
            for line in result.in_pool:
                self.ready.setdefault(line.block_id, []).append(line)
            for line in result.exited:
                self._enqueue(line)
