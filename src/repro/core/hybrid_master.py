"""Hybrid Master/Slave — master process (paper §4.3).

The master maintains a record per slave (streamlines owned and the blocks
they intersect, blocks loaded, advanceable count) and, whenever a status
message indicates a slave cannot perform more work, applies the paper's
assignment sequence for each starving slave S, in order, terminating when S
has been assigned new work:

1. Send_force: S offloads streamlines in unloaded blocks to slaves that
   have the block loaded (never raising the destination above N_O).
2. If S has more than N_L streamlines in one unloaded block, S loads it.
3. After such a Load, re-check whether *other* slaves can Send_force
   streamlines in their unloaded blocks to S.
4. Assign_loaded: N seeds from the pool in a block S has loaded.
5. Assign_unloaded: N seeds from any block (S loads it).
6. S loads the block populated with the most of its own streamlines.
7. Send_hint: a randomly chosen most-loaded slave is hinted that it can
   offload streamlines to S when appropriate.

For scalability there are multiple masters (one per W slaves); the seed
pool is split equally among them, terminated counts flow to the root
master, and a master whose pool runs dry while its slaves starve requests
seeds from its peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import messages as msg
from repro.core.config import HybridConfig
from repro.core.problem import ProblemSpec
from repro.integrate.streamline import Status, Streamline
from repro.obs import NULL_SPAN
from repro.sim.cluster import RankContext
from repro.sim.engine import Request


@dataclass
class SlaveRecord:
    """The master's model of one slave (refreshed by status messages,
    updated optimistically when the master issues instructions).
    ``queued`` is the running ``sum(lines_by_block.values())`` and the
    waiting list is cached: change a record through :meth:`refresh`,
    :meth:`mark_loaded` and :meth:`take` (only ``advanceable`` may be
    assigned directly)."""

    rank: int
    lines_by_block: Dict[int, int] = field(default_factory=dict)
    loaded: Set[int] = field(default_factory=set)
    advanceable: int = 0

    def __post_init__(self) -> None:
        self.refresh(self.lines_by_block, self.loaded, self.advanceable)

    def refresh(self, lines_by_block: Dict[int, int], loaded: Set[int],
                advanceable: int) -> None:
        """Replace the whole model (a status message arrived)."""
        self.lines_by_block = lines_by_block
        self.loaded = loaded
        self.advanceable = advanceable
        self.queued = sum(lines_by_block.values())
        self._waiting: Optional[List[Tuple[int, int]]] = None

    def mark_loaded(self, bid: int) -> None:
        self.loaded.add(bid)
        self._waiting = None

    def take(self, bid: int) -> int:
        """Remove and return the count of lines queued in ``bid``."""
        moved = self.lines_by_block.pop(bid, 0)
        self.queued -= moved
        self._waiting = None
        return moved

    @property
    def total_lines(self) -> int:
        return self.queued + self.advanceable

    def waiting_blocks(self) -> List[Tuple[int, int]]:
        """(count, block) pairs for blocks with waiting lines, by descending
        count then ascending block id; cached until the record changes."""
        if self._waiting is None:
            loaded = self.loaded
            self._waiting = sorted(
                ((c, b) for b, c in self.lines_by_block.items()
                 if c > 0 and b not in loaded),
                key=lambda cb: (-cb[0], cb[1]))
        return self._waiting


class HybridMaster:
    """One master rank coordinating a group of slaves."""

    def __init__(self, ctx: RankContext, problem: ProblemSpec,
                 config: HybridConfig, slaves: Sequence[int],
                 masters: Sequence[int],
                 pool: Dict[int, List[Tuple[int, np.ndarray]]]) -> None:
        self.ctx = ctx
        self.problem = problem
        self.config = config
        self.cost = problem.cost_model
        self.slaves = list(slaves)
        self.masters = list(masters)
        self.root = self.masters[0]
        self.is_root = ctx.rank == self.root
        #: Seed pool: block id -> [(sid, seed point), ...]
        self.pool = pool
        #: Seeds in the pool (kept in step wherever ``pool`` changes).
        self._pool_count = sum(len(v) for v in pool.values())
        self.records: Dict[int, SlaveRecord] = {
            s: SlaveRecord(rank=s) for s in self.slaves}
        self.needs_work: Set[int] = set()
        self._group_term_delta = 0
        self._global_count = 0   # root only
        self._done = False
        self._rng = np.random.default_rng(
            (config.seed, ctx.rank))
        # Inter-master seed balancing state.
        self._dry_masters: Set[int] = set()
        self._request_outstanding = False
        #: Idle slaves already hinted for during their current idle
        #: episode.  Without this, the endgame (many idle slaves, few
        #: busy ones) re-sends a hint for every idle slave on every
        #: incoming status — a message storm the paper's comm numbers
        #: clearly do not contain.  A slave becomes hintable again when
        #: its next status arrives.
        self._hinted: Set[int] = set()
        #: Out-of-domain seeds terminated at startup (root only).
        self.done_lines: List[Streamline] = []
        #: Loaded blocks under which the locality rule still loads.
        self._budget = min(config.duplication_budget,
                           self.ctx.spec.cache_capacity(
                               self.cost.block_nbytes) - 1)
        #: Step 7's busiest slaves over the whole group, or ``None`` once
        #: an instruction changed a record (see :meth:`_busiest`).
        self._top: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Pool helpers
    # ------------------------------------------------------------------ #
    def pool_size(self) -> int:
        return self._pool_count

    def _pool_block_with_most_seeds(self) -> Optional[int]:
        best = None
        for bid, entries in self.pool.items():
            if not entries:
                continue
            if best is None or (len(entries), -bid) \
                    > (len(self.pool[best]), -best):
                best = bid
        return best

    def _take_seeds(self, bid: int, n: int) -> msg.AssignSeeds:
        entries = self.pool[bid]
        take, self.pool[bid] = entries[:n], entries[n:]
        self._pool_count -= len(take)
        if not self.pool[bid]:
            del self.pool[bid]
        sids = tuple(sid for sid, _ in take)
        seeds = np.stack([pt for _, pt in take])
        return msg.AssignSeeds(block_id=bid, sids=sids, seeds=seeds)

    # ------------------------------------------------------------------ #
    # Instruction emission (each updates the master's optimistic model)
    # ------------------------------------------------------------------ #
    def _send(self, dest: int, kind: str,
              payload) -> Generator[Request, Any, None]:
        yield from self.ctx.comm.send(dest, kind, payload,
                                      payload.wire_nbytes(self.cost))

    def _emit_assign(self, s: SlaveRecord,
                     bid: int) -> Generator[Request, Any, None]:
        assign = self._take_seeds(bid, self.config.assignment_quantum)
        yield from self._send(s.rank, msg.KIND_ASSIGN, assign)
        s.mark_loaded(bid)  # Assign_unloaded makes the slave load it.
        s.advanceable += len(assign.sids)
        self._top = None
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "assign", slave=s.rank,
                                block=bid, n=len(assign.sids))

    def _emit_load(self, s: SlaveRecord,
                   bid: int) -> Generator[Request, Any, None]:
        yield from self._send(s.rank, msg.KIND_LOAD, msg.LoadBlock(bid))
        s.mark_loaded(bid)
        s.advanceable += s.take(bid)
        self._top = None
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "load_rule", slave=s.rank,
                                block=bid)

    def _emit_send_force(self, src: SlaveRecord, dst: SlaveRecord,
                         bid: int) -> Generator[Request, Any, None]:
        yield from self._send(src.rank, msg.KIND_SEND_FORCE,
                              msg.SendForce(block_id=bid, dest=dst.rank))
        moved = src.take(bid)
        dst.advanceable += moved  # dst has bid loaded, so they can run.
        self._top = None
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "send_force", src=src.rank,
                                dst=dst.rank, block=bid, moved=moved)
        # Deliberately do NOT remove dst from needs_work here: the count
        # may be stale (src may have already advanced or shipped those
        # lines), in which case dst receives nothing and — being blocked
        # on its mailbox — would never produce another status to re-add
        # itself.  Liveness requires keeping dst eligible until work is
        # sent *to dst directly*.  (A busy status does not remove it
        # either: ``_process`` only ever adds to ``needs_work``.)

    # ------------------------------------------------------------------ #
    # The assignment sequence
    # ------------------------------------------------------------------ #
    def _find_loaded_slave(self, bid: int, exclude: int,
                           incoming: int) -> Optional[SlaveRecord]:
        """A slave with ``bid`` loaded and headroom for ``incoming`` more
        streamlines under N_O (deterministic: least-loaded, lowest rank)."""
        limit = self.config.overload_limit - incoming
        best, best_total = None, 0
        for rank in self.slaves:
            r = self.records[rank]
            if bid in r.loaded and rank != exclude:
                total = r.queued + r.advanceable
                if total <= limit and (best is None or (total, rank)
                                       < (best_total, best.rank)):
                    best, best_total = r, total
        return best

    def _try_assign(self, slave_rank: int) -> Generator[Request, Any, None]:
        """Apply the 7-step sequence to one starving slave."""
        s = self.records[slave_rank]
        cfg = self.config
        records = self.records
        # One waiting list serves the locality rule and steps 1-2: step 1
        # only takes blocks at or below N_L, step 2 only looks above it.
        waiting = s.waiting_blocks()

        # Locality bias (see HybridConfig): while S is under its
        # duplication budget, loading the block it needs is cheaper over
        # the curve's lifetime than migrating geometry on every crossing.
        if cfg.locality_bias and len(s.loaded) < self._budget and waiting:
            yield from self._emit_load(s, waiting[0][1])
            self.needs_work.discard(s.rank)
            self._hinted.discard(s.rank)
            return

        # Step 1: Send_force S's waiting lines to slaves holding the block.
        # Per the paper's N_L semantics, "streamlines are not migrated
        # from a slave that has a significant number N_L of outstanding
        # streamlines in the same block" — those blocks are kept for the
        # Load rule (step 2) instead.
        for count, bid in waiting:
            if count > cfg.load_threshold:
                continue
            t = self._find_loaded_slave(bid, exclude=s.rank, incoming=count)
            if t is not None:
                yield from self._emit_send_force(s, t, bid)

        # Step 2: Load the block S has most (> N_L) waiting lines in.
        assigned = False
        if waiting and waiting[0][0] > cfg.load_threshold:
            bid = waiting[0][1]
            yield from self._emit_load(s, bid)
            assigned = True
            # Step 3: the loaded-block set changed; other slaves may now
            # Send_force their waiting lines (in that block) to S.
            for rank in self.slaves:
                if rank == s.rank:
                    continue
                t = records[rank]
                moved = t.lines_by_block.get(bid, 0)
                if moved > 0 and bid not in t.loaded \
                        and s.total_lines + moved <= cfg.overload_limit:
                    yield from self._emit_send_force(t, s, bid)

        # Step 4: Assign_loaded — pool seeds in the lowest block S already
        # has, found by walking whichever of the two sets is smaller.
        if not assigned and self._pool_count:
            few, many = sorted((self.pool, s.loaded), key=len)
            bid = min((b for b in few if b in many and self.pool[b]),
                      default=None)
            if bid is not None:
                yield from self._emit_assign(s, bid)
                assigned = True

        # Step 5: Assign_unloaded — pool seeds from any block.
        if not assigned:
            bid = self._pool_block_with_most_seeds()
            if bid is not None:
                yield from self._emit_assign(s, bid)
                assigned = True

        # Step 6: load S's most-populated waiting block (below N_L too).
        if not assigned:
            waiting = s.waiting_blocks()
            if waiting:
                yield from self._emit_load(s, waiting[0][1])
                assigned = True

        # Step 7: Send_hint — ask a busy slave to feed S (at most once
        # per idle episode of S, see _hinted).
        if not assigned and s.rank not in self._hinted:
            busiest = self._busiest(s.rank)
            if busiest:
                # Drawn whether or not a hint follows: the stream of
                # draws is part of the schedule.
                target = records[
                    busiest[int(self._rng.integers(len(busiest)))]]
                # Hint blocks the target can ship (its waiting blocks),
                # preferring ones S already has loaded.
                shippable = [b for _, b in target.waiting_blocks()]
                preferred = [b for b in shippable if b in s.loaded]
                hint_blocks = tuple(preferred or shippable)
                if hint_blocks:
                    yield from self._send(
                        target.rank, msg.KIND_SEND_HINT,
                        msg.SendHint(block_ids=hint_blocks, dest=s.rank))
                    self._hinted.add(s.rank)
                    if self.ctx.trace.enabled:
                        self.ctx.trace.emit(self.ctx.rank, "send_hint",
                                            src=target.rank, dst=s.rank,
                                            blocks=hint_blocks)

        if assigned:
            self.needs_work.discard(s.rank)
            self._hinted.discard(s.rank)

    def _scan_busiest(self, exclude: Optional[int]) -> List[int]:
        """The slaves other than ``exclude`` holding the most lines (at
        least one), in slave order."""
        records = self.records
        most, busiest = 1, []
        for r in self.slaves:
            n = records[r].queued + records[r].advanceable
            if n >= most and r != exclude:
                if n > most:
                    most, busiest = n, []
                busiest.append(r)
        return busiest

    def _busiest(self, exclude: int) -> List[int]:
        """Step 7's candidates for starving slave ``exclude``.

        Derived from the group-wide list, which is scanned once per pass
        and again only after an ``_emit_*`` changed a record: a slave
        outside the list leaves it whole, one of several busiest drops
        out of it, and only the sole busiest needs a rescan without it.
        """
        top = self._top
        if top is None:
            top = self._top = self._scan_busiest(None)
        if exclude not in top:
            return top
        if len(top) > 1:
            return [r for r in top if r != exclude]
        return self._scan_busiest(exclude)

    def _assignment_pass(self) -> Generator[Request, Any, None]:
        starving = sorted(self.needs_work)
        if not starving:
            return
        obs = self.ctx.obs
        self._top = None  # Statuses refreshed records since the last pass.
        with (obs.span(self.ctx.rank, "master.assign_pass",
                       starving=len(starving))
              if obs.enabled else NULL_SPAN):
            for rank in starving:
                if rank not in self.needs_work:
                    continue
                # No rule can fire for a slave with nothing waiting while
                # the pool is empty unless a hint can go out, and none can
                # when one is out or no other slave has work: skip it
                # without entering the sequence (no draw is skipped).
                if not self._pool_count \
                        and not self.records[rank].waiting_blocks() \
                        and (rank in self._hinted
                             or not self._busiest(rank)):
                    continue
                yield from self._try_assign(rank)

    # ------------------------------------------------------------------ #
    # Inter-master seed balancing
    # ------------------------------------------------------------------ #
    def _maybe_request_seeds(self) -> Generator[Request, Any, None]:
        if self._request_outstanding or not self.needs_work \
                or self.pool_size() > 0:
            return
        peers = [m for m in self.masters
                 if m != self.ctx.rank and m not in self._dry_masters]
        if not peers:
            return
        target = peers[0]
        yield from self._send(target, msg.KIND_SEED_REQUEST,
                              msg.SeedRequest(requester=self.ctx.rank))
        self._request_outstanding = True

    def _grant_seeds(self, requester: int) -> Generator[Request, Any, None]:
        """Answer a peer's request with up to W*N seeds from our pool."""
        budget = self.config.slaves_per_master * self.config.assignment_quantum
        grant: Dict[int, Tuple[Tuple[int, ...], np.ndarray]] = {}
        while budget > 0:
            bid = self._pool_block_with_most_seeds()
            if bid is None:
                break
            assign = self._take_seeds(bid, budget)
            grant[bid] = (assign.sids, assign.seeds)
            budget -= len(assign.sids)
        payload = msg.SeedGrant(by_block=grant)
        yield from self._send(requester, msg.KIND_SEED_GRANT, payload)
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "seed_grant",
                                requester=requester, n=payload.n_seeds())

    # ------------------------------------------------------------------ #
    # Termination plumbing
    # ------------------------------------------------------------------ #
    def _forward_terminations(self) -> Generator[Request, Any, None]:
        if self._group_term_delta == 0:
            return
        delta, self._group_term_delta = self._group_term_delta, 0
        if self.is_root:
            self._global_count += delta
        else:
            payload = msg.CountDelta(delta)
            yield from self._send(self.root, msg.KIND_COUNT, payload)

    def _broadcast_done(self) -> Generator[Request, Any, None]:
        payload = msg.Done()
        for m in self.masters:
            if m != self.ctx.rank:
                yield from self._send(m, msg.KIND_DONE, payload)
        for s in self.slaves:
            yield from self._send(s, msg.KIND_DONE, payload)
        self._done = True

    def _forward_done_to_slaves(self) -> Generator[Request, Any, None]:
        payload = msg.Done()
        for s in self.slaves:
            yield from self._send(s, msg.KIND_DONE, payload)
        self._done = True

    # ------------------------------------------------------------------ #
    # Message handling and main loop
    # ------------------------------------------------------------------ #
    def _handle_out_of_domain_seeds(self) -> None:
        """Terminate pool entries whose seed lies outside the domain
        (block id -1) so the global count can still reach n_seeds.  Every
        master handles its own share; the deltas flow to the root."""
        entries = self.pool.pop(-1, [])
        self._pool_count -= len(entries)
        obs = self.ctx.obs
        for sid, pt in entries:
            line = Streamline(sid=sid, seed=pt)
            line.terminate(Status.OUT_OF_BOUNDS)
            self.done_lines.append(line)
            self._group_term_delta += 1
            # The master never owns these curves (no Worker bookkeeping),
            # so emit the lifecycle bracket directly.
            if obs.enabled:
                obs.marker(self.ctx.rank, "seed.own", sid=sid)
                obs.marker(self.ctx.rank, "seed.term", sid=sid)

    def _process(self, inbox) -> Generator[Request, Any, None]:
        for m in inbox:
            payload = m.payload
            if isinstance(payload, msg.SlaveStatus):
                # The slave built ``lines_by_block`` for this message
                # alone, so the record adopts it instead of a copy.
                r = self.records[payload.slave]
                r.refresh(payload.lines_by_block,
                          set(payload.loaded_blocks), payload.advanceable)
                self._group_term_delta += payload.terminated_delta
                self._hinted.discard(payload.slave)
                # Any status signals the slave is (about to be) starving.
                if r.advanceable == 0:
                    self.needs_work.add(payload.slave)
            elif isinstance(payload, msg.CountDelta):
                if not self.is_root:
                    raise RuntimeError("count delta at non-root master")
                self._global_count += payload.delta
            elif isinstance(payload, msg.SeedRequest):
                yield from self._grant_seeds(payload.requester)
            elif isinstance(payload, msg.SeedGrant):
                self._request_outstanding = False
                if payload.n_seeds() == 0:
                    self._dry_masters.add(m.src)
                else:
                    self._pool_count += payload.n_seeds()
                    for bid, (sids, seeds) in payload.by_block.items():
                        self.pool.setdefault(bid, []).extend(
                            (sid, seeds[i]) for i, sid in enumerate(sids))
            elif isinstance(payload, msg.Done):
                yield from self._forward_done_to_slaves()
            else:
                raise RuntimeError(
                    f"hybrid master {self.ctx.rank}: unexpected message "
                    f"{type(payload).__name__}")

    def _initial_assignment(self) -> Generator[Request, Any, None]:
        """Paper: all slaves receive their initial allocation through the
        Assign_unloaded rule (N seeds each)."""
        for rank in self.slaves:
            bid = self._pool_block_with_most_seeds()
            if bid is None:
                break
            yield from self._emit_assign(self.records[rank], bid)

    def run(self) -> Generator[Request, Any, None]:
        self._handle_out_of_domain_seeds()
        yield from self._initial_assignment()
        while not self._done:
            yield from self._forward_terminations()
            if self.is_root and self._global_count == self.problem.n_seeds:
                yield from self._broadcast_done()
                return
            yield from self._assignment_pass()
            yield from self._maybe_request_seeds()
            inbox = yield from self.ctx.comm.recv_wait(
                reason="slave_status")
            yield from self._process(inbox)
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "master_done")
