"""Static Allocation (paper §4.1).

Parallelization across *blocks*: rank r statically owns the r-th contiguous
1/n of the blocks.  Each streamline is integrated by the owner of the block
it currently resides in; when it crosses into a block owned by another rank
it is communicated there (carrying its accumulated geometry).  A globally
communicated count of terminated streamlines (maintained by rank 0) lets
every rank detect completion.

Strengths and weaknesses reproduced from the paper: minimal I/O (each rank
loads only its owned blocks, so block efficiency is ideal), but heavy
communication when streamlines cross ranks, and catastrophic load imbalance
— including out-of-memory failure — when a dense seed set concentrates every
streamline on one owner (§5.3).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence

from repro.core import messages as msg
from repro.core.base import Worker, owner_of_block
from repro.core.problem import ProblemSpec
from repro.integrate.streamline import Status, Streamline
from repro.sim.cluster import RankContext
from repro.sim.engine import Request
from repro.storage.store import BlockStore


def seed_claims(problem: ProblemSpec, n_ranks: int) -> List[List[int]]:
    """The seed ids every rank claims at set-up, each list in sid order.

    Rank r claims the seeds whose initial block it owns; rank 0 also
    claims the out-of-domain seeds (block -1), which it terminates at once
    so the global count still reaches ``n_seeds``.  One pass over the
    seeds serves every rank, with one :func:`owner_of_block` call per
    distinct initial block.
    """
    owner: Dict[int, int] = {-1: 0}
    claims: List[List[int]] = [[] for _ in range(n_ranks)]
    for sid, bid in enumerate(problem.seed_blocks.tolist()):
        rank = owner.get(bid)
        if rank is None:
            rank = owner[bid] = owner_of_block(bid, problem.n_blocks,
                                               n_ranks)
        claims[rank].append(sid)
    return claims


class StaticWorker(Worker):
    """One rank of the Static Allocation algorithm.

    Rank 0 additionally plays the count coordinator: it accumulates
    terminated-count deltas and broadcasts ``Done`` when the global count
    reaches the seed count.
    """

    def __init__(self, ctx: RankContext, problem: ProblemSpec,
                 store: BlockStore, sids: Sequence[int]) -> None:
        super().__init__(ctx, problem, store)
        self.n_ranks = ctx.spec.n_ranks
        self.n_blocks = problem.n_blocks
        #: This rank's :func:`seed_claims` entry (one pass serves every
        #: rank of a run).
        self._sids = sids
        #: Active streamlines waiting in owned blocks, grouped by block.
        self.queue: Dict[int, List[Streamline]] = {}
        self._pending_term_delta = 0
        self._global_count = 0  # rank 0 only
        self._done = False

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _setup_seeds(self) -> None:
        """Claim the seeds whose initial block this rank owns.

        Out-of-domain seeds are terminated immediately by rank 0 (they
        belong to no block) so the global count still reaches n_seeds.
        """
        seed_blocks = self.problem.seed_blocks
        for sid in self._sids:
            bid = int(seed_blocks[sid])
            if bid < 0:
                line = Streamline(sid=sid, seed=self.problem.seeds[sid])
                self.own_line(line)
                line.terminate(Status.OUT_OF_BOUNDS)
                self.done_lines.append(line)
                self.ctx.metrics.streamlines_completed += 1
                self._pending_term_delta += 1
                if self.ctx.obs.enabled:
                    self.ctx.obs.marker(self.ctx.rank, "seed.term", sid=sid)
                continue
            line = Streamline(sid=sid, seed=self.problem.seeds[sid],
                              block_id=bid)
            self.own_line(line)
            self.queue.setdefault(bid, []).append(line)

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def _process(self, inbox) -> None:
        for m in inbox:
            payload = m.payload
            if isinstance(payload, msg.StreamlinePacket):
                for line in payload.lines:
                    self.own_line(line)
                    self.queue.setdefault(line.block_id, []).append(line)
            elif isinstance(payload, msg.CountDelta):
                if self.ctx.rank != 0:
                    raise RuntimeError("count delta sent to non-root rank")
                self._global_count += payload.delta
            elif isinstance(payload, msg.Done):
                self._done = True
            else:
                raise RuntimeError(
                    f"static rank {self.ctx.rank}: unexpected message "
                    f"{type(payload).__name__}")

    def _report_terminations(self) -> Generator[Request, Any, None]:
        if self._pending_term_delta == 0:
            return
        delta = self._pending_term_delta
        self._pending_term_delta = 0
        if self.ctx.rank == 0:
            self._global_count += delta
        else:
            payload = msg.CountDelta(delta)
            yield from self.ctx.comm.send(
                0, msg.KIND_COUNT, payload, payload.wire_nbytes(self.cost))

    def _broadcast_done(self) -> Generator[Request, Any, None]:
        payload = msg.Done()
        for r in range(self.n_ranks):
            if r != self.ctx.rank:
                yield from self.ctx.comm.send(
                    r, msg.KIND_DONE, payload,
                    payload.wire_nbytes(self.cost))
        self._done = True

    def active_lines(self) -> int:
        return sum(len(lines) for lines in self.queue.values())

    # ------------------------------------------------------------------ #
    # Work
    # ------------------------------------------------------------------ #
    def _route_exited(self, lines: List[Streamline]
                      ) -> Generator[Request, Any, None]:
        """Requeue or communicate streamlines that changed block."""
        for line in lines:
            bid = line.block_id
            if bid < 0:  # safety: kernel already terminates domain exits
                raise AssertionError("exited line has no block")
            owner = owner_of_block(bid, self.n_blocks, self.n_ranks)
            if owner == self.ctx.rank:
                self.queue.setdefault(bid, []).append(line)
            else:
                packet = msg.StreamlinePacket([line])
                self.release_line(line)
                yield from self.ctx.comm.send(
                    owner, msg.KIND_STREAMLINE, packet,
                    packet.wire_nbytes(self.cost))
                if self.ctx.trace.enabled:
                    self.ctx.trace.emit(self.ctx.rank, "line_sent",
                                        sid=line.sid, dest=owner, block=bid)

    def run(self) -> Generator[Request, Any, None]:
        self._setup_seeds()
        while not self._done:
            # Work phase: advance everything in owned blocks, pooled.
            while self.queue:
                # Make the most-demanded queued blocks resident (owned
                # blocks normally all fit in the cache; if not, work on
                # the busiest subset first).
                wanted = sorted(self.queue,
                                key=lambda b: (-len(self.queue[b]), b))
                wanted = wanted[:max(1, self.cache.capacity // 2)]
                for bid in wanted:
                    yield from self.ensure_block(
                        bid, waiting_lines=self.queue[bid])
                batch = []
                for bid in wanted:
                    batch.extend(self.queue.pop(bid))
                result, demoted = yield from self.advect_pool(batch)
                for line in demoted + result.in_pool:
                    self.queue.setdefault(line.block_id, []).append(line)
                self._pending_term_delta += len(result.terminated)
                yield from self._route_exited(result.exited)
                # Opportunistically accept incoming work mid-phase.
                inbox = yield from self.ctx.comm.try_recv()
                self._process(inbox)
                if self._done:
                    return
            yield from self._report_terminations()
            if self.ctx.rank == 0 \
                    and self._global_count == self.problem.n_seeds:
                yield from self._broadcast_done()
                return
            # Idle: block until new work, a count, or Done arrives.
            inbox = yield from self.ctx.comm.recv_wait(reason="message")
            self._process(inbox)
            if self.ctx.rank == 0 \
                    and self._global_count == self.problem.n_seeds \
                    and not self.queue:
                yield from self._broadcast_done()
                return
