"""Hybrid Master/Slave — slave process (paper §4.3, Algorithm 1).

Each slave continuously advances streamlines that reside in blocks it has
loaded.  When it can advance no more streamlines it sends a status message
to its master and waits for instructions; to hide latency, the status is
sent *before* advancing the last available batch.  At each iteration the
slave checks for incoming instructions and streamlines.

Instructions a slave executes:

* ``AssignSeeds`` — new curves from the master's pool (loading the block
  first if necessary: the Assign_unloaded rule);
* ``LoadBlock`` — the Load rule: read a block, promoting the curves
  waiting on it;
* ``SendForce`` — ship the curves waiting in one block to another slave;
* ``SendHint`` — optionally ship curves in the hinted blocks to a
  starving slave (the slave ignores hints it has no curves for);
* ``Done`` — terminate.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.core import messages as msg
from repro.core.base import Worker
from repro.core.problem import ProblemSpec
from repro.integrate.streamline import Streamline
from repro.sim.cluster import RankContext
from repro.sim.engine import Request
from repro.storage.store import BlockStore


class HybridSlave(Worker):
    """One slave rank of the Hybrid Master/Slave algorithm."""

    def __init__(self, ctx: RankContext, problem: ProblemSpec,
                 store: BlockStore, master: int) -> None:
        super().__init__(ctx, problem, store)
        self.master = master
        #: Curves waiting in blocks not currently loaded.
        self.waiting: Dict[int, List[Streamline]] = {}
        #: Curves in loaded blocks, ready to advance.
        self.ready: Dict[int, List[Streamline]] = {}
        self._terminated_delta = 0
        self._done = False
        self._status_in_flight = False
        #: State changed since the last status we sent (the master's
        #: record of us is stale).  Starts True: the master must hear from
        #: us at least once.
        self._dirty = True

    # ------------------------------------------------------------------ #
    # Queue plumbing
    # ------------------------------------------------------------------ #
    def _enqueue(self, line: Streamline) -> None:
        target = self.ready if self.has_block(line.block_id) \
            else self.waiting
        target.setdefault(line.block_id, []).append(line)

    def total_lines(self) -> int:
        return (sum(len(v) for v in self.ready.values())
                + sum(len(v) for v in self.waiting.values()))

    def active_lines(self) -> int:
        return self.total_lines()

    def _lines_by_block(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for bid, lines in self.ready.items():
            counts[bid] = counts.get(bid, 0) + len(lines)
        for bid, lines in self.waiting.items():
            counts[bid] = counts.get(bid, 0) + len(lines)
        return counts

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #
    def _send_status(self) -> Generator[Request, Any, None]:
        status = msg.SlaveStatus(
            slave=self.ctx.rank,
            lines_by_block=self._lines_by_block(),
            loaded_blocks=tuple(self.cache),
            advanceable=sum(len(v) for v in self.ready.values()),
            terminated_delta=self._terminated_delta,
        )
        self._terminated_delta = 0
        yield from self.ctx.comm.send(self.master, msg.KIND_STATUS, status,
                                      status.wire_nbytes(self.cost))
        self._status_in_flight = True
        self._dirty = False

    # ------------------------------------------------------------------ #
    # Instruction handling
    # ------------------------------------------------------------------ #
    def _ship_lines(self, lines: List[Streamline],
                    dest: int) -> Generator[Request, Any, None]:
        """Send curves to another slave (releasing their memory here)."""
        if not lines:
            return
        packet = msg.StreamlinePacket(lines)
        for line in lines:
            self.release_line(line)
        self._dirty = True
        yield from self.ctx.comm.send(dest, msg.KIND_STREAMLINE, packet,
                                      packet.wire_nbytes(self.cost))
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "lines_shipped",
                                count=len(lines), dest=dest)

    def _process(self, inbox) -> Generator[Request, Any, None]:
        for m in inbox:
            payload = m.payload
            if isinstance(payload, msg.StreamlinePacket):
                for line in payload.lines:
                    self.own_line(line)
                    self._enqueue(line)
                self._dirty = True
            elif isinstance(payload, msg.AssignSeeds):
                lines = [Streamline(sid=sid, seed=payload.seeds[i],
                                    block_id=payload.block_id)
                         for i, sid in enumerate(payload.sids)]
                for line in lines:
                    self.own_line(line)
                if not self.has_block(payload.block_id):
                    yield from self.ensure_block(
                        payload.block_id,
                        waiting_lines=lines
                        + self.waiting.get(payload.block_id, []))
                    self._promote(payload.block_id)
                self.ready.setdefault(payload.block_id, []).extend(lines)
            elif isinstance(payload, msg.LoadBlock):
                if not self.has_block(payload.block_id):
                    yield from self.ensure_block(
                        payload.block_id,
                        waiting_lines=self.waiting.get(payload.block_id, ()))
                self._promote(payload.block_id)
            elif isinstance(payload, msg.SendForce):
                lines = self.waiting.pop(payload.block_id, [])
                yield from self._ship_lines(lines, payload.dest)
            elif isinstance(payload, msg.SendHint):
                # Autonomy: honour the hint only for curves we are not
                # about to integrate ourselves (waiting ones).
                for bid in payload.block_ids:
                    lines = self.waiting.pop(bid, [])
                    yield from self._ship_lines(lines, payload.dest)
            elif isinstance(payload, msg.Done):
                self._done = True
            else:
                raise RuntimeError(
                    f"hybrid slave {self.ctx.rank}: unexpected message "
                    f"{type(payload).__name__}")

    def _promote(self, block_id: int) -> None:
        """Move curves waiting on a now-resident block into ready, and
        demote any ready curves whose block has been evicted."""
        if block_id in self.waiting and self.has_block(block_id):
            self.ready.setdefault(block_id, []).extend(
                self.waiting.pop(block_id))
        for bid in [b for b in self.ready if not self.has_block(b)]:
            self.waiting.setdefault(bid, []).extend(self.ready.pop(bid))

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> Generator[Request, Any, None]:
        while not self._done:
            while self.ready and not self._done:
                # Advance every ready line across all loaded blocks in
                # one pooled call.  (The paper's Algorithm 1 advances one
                # streamline per iteration and pre-sends its status before
                # the last one; with pooled advancement a drain episode is
                # one call, and the master gets the status the moment the
                # episode ends — the same latency window, batched.)
                batch = []
                for lines in self.ready.values():
                    batch.extend(lines)
                self.ready.clear()
                result, demoted = yield from self.advect_pool(batch)
                for line in demoted:
                    self.waiting.setdefault(line.block_id, []).append(line)
                for line in result.in_pool:
                    self.ready.setdefault(line.block_id, []).append(line)
                self._terminated_delta += len(result.terminated)
                if result.terminated or result.exited:
                    self._dirty = True
                for line in result.exited:
                    self._enqueue(line)
                inbox = yield from self.ctx.comm.try_recv()
                yield from self._process(inbox)
            if self._done:
                break
            # Out of advanceable work: make sure the master has our
            # current state, then wait for instructions.
            if self._dirty or not self._status_in_flight:
                yield from self._send_status()
            inbox = yield from self.ctx.comm.recv_wait(
                reason="master_assignment")
            self._status_in_flight = False
            yield from self._process(inbox)
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "slave_done",
                                done_lines=len(self.done_lines))
