"""Shared per-rank worker machinery.

All three algorithms run the same inner loop on every rank — keep blocks in
an LRU cache, advance the streamlines resident in loaded blocks with the
batched Dormand-Prince kernel, account modelled memory — and differ only in
*which* blocks and streamlines a rank works on and what it communicates.
:class:`Worker` provides that common substrate; the algorithm modules
subclass it with their protocols.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, Generator, List, Optional,
                    Sequence)

import numpy as np

from repro.core.problem import ProblemSpec
# benchmarks/host/seams.py times ``advance_pool`` and ``BlockPool`` under
# these names in this module; a worker's pooled advance is a bank replay.
from repro.integrate.bank import TrajectoryBank, replay_pool as advance_pool
from repro.integrate.pooled import BlockPool, PoolResult  # noqa: F401
from repro.integrate.streamline import Status, Streamline
from repro.mesh.block import Block
from repro.obs.span import NULL_SPAN
from repro.sim.cluster import RankContext
from repro.sim.engine import Request
from repro.storage.cache import LRUBlockCache
from repro.storage.store import BlockStore

#: Lockstep rounds per advect_pool call before the worker re-checks its
#: mailbox.  Bounds how long (in simulated *and* real time) a rank computes
#: without reacting to messages.
POOL_ROUND_LIMIT = 96


def partition_contiguous(n_items: int, n_parts: int, part: int) -> range:
    """Index range of ``part`` when splitting ``n_items`` into
    ``n_parts`` contiguous, maximally even chunks (first chunks get the
    remainder, as in the paper's "first 1/n of the blocks")."""
    if not 0 <= part < n_parts:
        raise ValueError(f"part {part} out of range [0, {n_parts})")
    base, rem = divmod(n_items, n_parts)
    start = part * base + min(part, rem)
    end = start + base + (1 if part < rem else 0)
    return range(start, end)


def owner_of_block(block_id: int, n_blocks: int, n_ranks: int) -> int:
    """Static Allocation's block ownership (contiguous 1/n chunks)."""
    if not 0 <= block_id < n_blocks:
        raise ValueError(f"block {block_id} out of range [0, {n_blocks})")
    base, rem = divmod(n_blocks, n_ranks)
    # Inverse of partition_contiguous: first `rem` ranks own base+1 blocks.
    boundary = rem * (base + 1)
    if block_id < boundary:
        return block_id // (base + 1)
    if base == 0:
        # More ranks than blocks: blocks beyond the boundary do not exist.
        raise AssertionError("unreachable: block_id >= n_blocks")
    return rem + (block_id - boundary) // base


class Worker:
    """Base class for one simulated rank of a parallel algorithm.

    Subclasses implement :meth:`run` as a simulator coroutine (invoked via
    ``Engine.spawn``).  The worker owns the rank's block cache and its
    modelled-memory bookkeeping for blocks and buffered streamlines.
    """

    def __init__(self, ctx: RankContext, problem: ProblemSpec,
                 store: BlockStore) -> None:
        self.ctx = ctx
        self.problem = problem
        self.store = store
        self.cost = problem.cost_model
        self.cache = LRUBlockCache(
            capacity=ctx.spec.cache_capacity(self.cost.block_nbytes))
        #: Where this rank's curves are integrated: ``run_streamlines`` points
        #: a run's workers at one bank; one built on its own keeps this one.
        self.bank = TrajectoryBank(problem, store)
        #: Modelled bytes currently allocated per buffered streamline.
        self._line_mem: Dict[int, int] = {}
        #: Curves that finished on this rank (kept resident, as real
        #: tracers keep geometry for output).
        self.done_lines: List[Streamline] = []

    # ------------------------------------------------------------------ #
    # Blocks
    # ------------------------------------------------------------------ #
    def ensure_block(self, block_id: int,
                     waiting_lines: Optional[Sequence[Streamline]] = None,
                     ) -> Generator[Request, Any, Block]:
        """The block, from cache or via a (priced) filesystem read.

        ``waiting_lines`` (optional, recording-only) names the
        streamlines blocked on this load; on a cache miss their ids tag
        the ``io.load_block`` span so per-seed lineage can attribute the
        blocked-on-load interval.  Pass the live queue list — ids are
        only extracted when the recorder is enabled and a read happens.
        """
        ctx = self.ctx
        obs = ctx.obs
        block = self.cache.get(block_id)
        if block is not None:
            ctx.metrics.cache_hits += 1
            if obs.enabled:
                obs.registry.counter("cache.hits").inc()
            return block
        load_span = NULL_SPAN
        if obs.enabled:
            obs.registry.counter("cache.misses").inc()
            attrs: Dict[str, Any] = {"block": block_id}
            if waiting_lines:
                attrs["sids"] = sorted(ln.sid for ln in waiting_lines)
            load_span = obs.span(ctx.rank, "io.load_block", **attrs)
        with load_span:
            yield from ctx.read_block_bytes(self.cost.block_nbytes)
            block = self.store.load(block_id)
        evicted = self.cache.put(block)
        for _ in evicted:
            ctx.memory.free(self.cost.block_nbytes, "block")
        ctx.memory.allocate(self.cost.block_nbytes, "block")
        ctx.metrics.blocks_loaded += 1
        ctx.metrics.blocks_purged += len(evicted)
        if ctx.trace.enabled:
            ctx.trace.emit(ctx.rank, "block_load", block=block_id,
                           purged=[b.block_id for b in evicted])
        return block

    def has_block(self, block_id: int) -> bool:
        return block_id in self.cache

    def _pool_for(self, blocks: List[Block]) -> FrozenSet[int]:
        """The resident block set one pooled advance may move within."""
        return frozenset(b.block_id for b in blocks)

    # ------------------------------------------------------------------ #
    # Streamline memory bookkeeping
    # ------------------------------------------------------------------ #
    def own_line(self, line: Streamline) -> None:
        """Start buffering a curve on this rank (allocates its memory).

        Also the rank-handoff accounting point: every ownership after the
        first is a handoff arrival, and a handoff to a rank the curve has
        already visited is a *ping-pong* arrival (paid-for geometry
        bouncing back — the parallelize-over-data pathology the analyzer
        reports).  Pure counters: the schedule is untouched.
        """
        if line.sid in self._line_mem:
            raise RuntimeError(f"rank {self.ctx.rank} already owns "
                               f"streamline {line.sid}")
        rank = self.ctx.rank
        obs = self.ctx.obs
        if obs.enabled:
            obs.marker(rank, "seed.own", sid=line.sid)
        if line.visited_ranks:
            self.ctx.metrics.lines_received += 1
            if rank in line.visited_ranks:
                self.ctx.metrics.pingpong_arrivals += 1
        if rank not in line.visited_ranks:
            line.visited_ranks.append(rank)
        nbytes = self.cost.streamline_memory_nbytes(line.n_vertices)
        self.ctx.memory.allocate(nbytes, "streamline")
        self._line_mem[line.sid] = nbytes

    def grow_line(self, line: Streamline) -> None:
        """Re-account a curve whose geometry grew during advection."""
        held = self._line_mem.get(line.sid)
        if held is None:
            raise RuntimeError(f"rank {self.ctx.rank} does not own "
                               f"streamline {line.sid}")
        now = self.cost.streamline_memory_nbytes(line.n_vertices)
        if now > held:
            self.ctx.memory.allocate(now - held, "streamline")
            self._line_mem[line.sid] = now

    def release_line(self, line: Streamline) -> None:
        """Stop buffering a curve (it was sent to another rank)."""
        nbytes = self._line_mem.pop(line.sid, None)
        if nbytes is None:
            raise RuntimeError(f"rank {self.ctx.rank} does not own "
                               f"streamline {line.sid}")
        obs = self.ctx.obs
        if obs.enabled:
            obs.marker(self.ctx.rank, "seed.release", sid=line.sid)
        self.ctx.memory.free(nbytes, "streamline")

    def owns_line(self, sid: int) -> bool:
        return sid in self._line_mem

    # ------------------------------------------------------------------ #
    # Advection
    # ------------------------------------------------------------------ #
    def advect_pool(self, lines: Sequence[Streamline],
                    round_limit: Optional[int] = POOL_ROUND_LIMIT,
                    ) -> Generator[Request, Any,
                                   "tuple[PoolResult, List[Streamline]]"]:
        """Advance ``lines`` across *all* their (resident) blocks at once.

        This is the production path: every line on this rank advances in
        lockstep, switching blocks freely within the loaded set
        ("integrates all streamlines to the edge of the loaded blocks").
        The numbers come from the run's trajectory bank, which integrated
        each curve once; the simulated cost is still charged here, per
        call, from ``attempted_steps``.  Lines whose block turns out not
        to be resident are returned as the second element (demoted)
        without being advanced.
        """
        by_bid: Dict[int, List[Streamline]] = {}
        for line in lines:
            by_bid.setdefault(line.block_id, []).append(line)
        blocks: List[Block] = []
        demoted: List[Streamline] = []
        pool_lines: List[Streamline] = []
        for bid in sorted(by_bid):
            block = self.cache.get(bid)
            if block is None:
                demoted.extend(by_bid[bid])
                continue
            self.ctx.metrics.cache_hits += 1
            blocks.append(block)
            pool_lines.extend(by_bid[bid])
        if not blocks:
            return PoolResult(), demoted
        result = advance_pool(pool_lines, self._pool_for(blocks), self.bank,
                              round_limit)
        obs = self.ctx.obs
        yield from self.ctx.compute(
            result.attempted_steps,
            sids=([ln.sid for ln in pool_lines] if obs.enabled else None))
        for line in pool_lines:
            self.grow_line(line)
        for line in result.terminated:
            self.done_lines.append(line)
            self.ctx.metrics.streamlines_completed += 1
            if obs.enabled:
                obs.marker(self.ctx.rank, "seed.term", sid=line.sid)
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(
                self.ctx.rank, "advect_pool", blocks=len(blocks),
                lines=len(pool_lines), steps=result.attempted_steps,
                exited=len(result.exited), terminated=len(result.terminated),
                leftover=len(result.in_pool))
        return result, demoted

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def active_lines(self) -> int:
        """Streamlines currently queued or advancing on this rank (a
        sampled gauge; subclasses override with their queue shapes)."""
        return 0

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def run(self) -> Generator[Request, Any, None]:
        """The rank's program; subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator if ever called
