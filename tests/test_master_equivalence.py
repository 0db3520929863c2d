"""Decision equivalence of the hybrid master's incremental bookkeeping.

``OracleRecord`` and the methods of ``OracleMaster`` are earlier
versions of ``SlaveRecord`` / ``_try_assign`` / ``_assignment_pass``
(and the helpers they call), copied verbatim: every aggregate is
re-derived from the dicts on every use, every starving slave enters the
full sequence, and step 7 rescans the group for every hint.  The
production master keeps running totals, skips slaves no rule can serve
and reuses one busiest list per pass instead; fed the same message
streams it must emit the same instructions, in the same order, and
leave the same state and RNG stream behind.
"""

import copy
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import messages as msg
from repro.core.config import HybridConfig
from repro.core.hybrid_master import HybridMaster, SlaveRecord
from repro.core.problem import ProblemSpec
from repro.fields import UniformField
from repro.mesh.bounds import Bounds
from repro.obs import NULL_SPAN
from repro.sim.engine import Request
from repro.sim.machine import MachineSpec


# --------------------------------------------------------------------- #
# The oracle: parent-commit code, verbatim
# --------------------------------------------------------------------- #
@dataclass
class OracleRecord:
    """The master's model of one slave (refreshed by status messages,
    updated optimistically when the master issues instructions)."""

    rank: int
    lines_by_block: Dict[int, int] = field(default_factory=dict)
    loaded: Set[int] = field(default_factory=set)
    advanceable: int = 0

    @property
    def total_lines(self) -> int:
        return sum(self.lines_by_block.values()) + self.advanceable

    def waiting_blocks(self) -> List[Tuple[int, int]]:
        """(count, block) pairs for blocks with waiting lines, sorted by
        descending count then ascending block id (deterministic)."""
        pairs = [(c, b) for b, c in self.lines_by_block.items()
                 if c > 0 and b not in self.loaded]
        pairs.sort(key=lambda cb: (-cb[0], cb[1]))
        return pairs

    def refresh(self, lines_by_block, loaded, advanceable) -> None:
        # Adapter (not parent code): what the parent's ``_process`` did
        # with a status message, inline.
        self.lines_by_block = lines_by_block
        self.loaded = loaded
        self.advanceable = advanceable


class OracleMaster(HybridMaster):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records = {s: OracleRecord(rank=s) for s in self.slaves}

    def pool_size(self) -> int:
        return sum(len(v) for v in self.pool.values())

    def _pool_block_with_most_seeds(self) -> Optional[int]:
        best = None
        for bid, entries in self.pool.items():
            if not entries:
                continue
            if best is None or (len(entries), -bid) \
                    > (len(self.pool[best]), -best):
                best = bid
        return best

    def _emit_assign(self, s: OracleRecord,
                     bid: int) -> Generator[Request, Any, None]:
        assign = self._take_seeds(bid, self.config.assignment_quantum)
        yield from self._send(s.rank, msg.KIND_ASSIGN, assign)
        s.loaded.add(bid)  # Assign_unloaded makes the slave load it.
        s.advanceable += len(assign.sids)
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "assign", slave=s.rank,
                                block=bid, n=len(assign.sids))

    def _emit_load(self, s: OracleRecord,
                   bid: int) -> Generator[Request, Any, None]:
        yield from self._send(s.rank, msg.KIND_LOAD, msg.LoadBlock(bid))
        s.loaded.add(bid)
        s.advanceable += s.lines_by_block.pop(bid, 0)
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "load_rule", slave=s.rank,
                                block=bid)

    def _emit_send_force(self, src: OracleRecord, dst: OracleRecord,
                         bid: int) -> Generator[Request, Any, None]:
        yield from self._send(src.rank, msg.KIND_SEND_FORCE,
                              msg.SendForce(block_id=bid, dest=dst.rank))
        moved = src.lines_by_block.pop(bid, 0)
        dst.advanceable += moved  # dst has bid loaded, so they can run.
        if self.ctx.trace.enabled:
            self.ctx.trace.emit(self.ctx.rank, "send_force", src=src.rank,
                                dst=dst.rank, block=bid, moved=moved)
        # Deliberately do NOT remove dst from needs_work here: the count
        # may be stale (src may have already advanced or shipped those
        # lines), in which case dst receives nothing and — being blocked
        # on its mailbox — would never produce another status to re-add
        # itself.  Liveness requires keeping dst eligible until work is
        # sent *to dst directly* or its next status proves it busy.

    def _find_loaded_slave(self, bid: int, exclude: int,
                           incoming: int) -> Optional[OracleRecord]:
        """A slave with ``bid`` loaded and headroom for ``incoming`` more
        streamlines under N_O (deterministic: least-loaded, lowest rank)."""
        best = None
        for rank in self.slaves:
            if rank == exclude:
                continue
            r = self.records[rank]
            if bid in r.loaded \
                    and r.total_lines + incoming <= self.config.overload_limit:
                if best is None or (r.total_lines, rank) \
                        < (best.total_lines, best.rank):
                    best = r
        return best

    def _try_assign(self, slave_rank: int) -> Generator[Request, Any, None]:
        """Apply the 7-step sequence to one starving slave."""
        s = self.records[slave_rank]
        cfg = self.config

        # Locality bias (see HybridConfig): while S is under its
        # duplication budget, loading the block it needs is cheaper over
        # the curve's lifetime than migrating geometry on every crossing.
        budget = min(cfg.duplication_budget,
                     self.ctx.spec.cache_capacity(self.cost.block_nbytes) - 1)
        if cfg.locality_bias and len(s.loaded) < budget:
            waiting = s.waiting_blocks()
            if waiting:
                yield from self._emit_load(s, waiting[0][1])
                self.needs_work.discard(s.rank)
                self._hinted.discard(s.rank)
                return

        # Step 1: Send_force S's waiting lines to slaves holding the block.
        # Per the paper's N_L semantics, "streamlines are not migrated
        # from a slave that has a significant number N_L of outstanding
        # streamlines in the same block" — those blocks are kept for the
        # Load rule (step 2) instead.
        for count, bid in s.waiting_blocks():
            if count > cfg.load_threshold:
                continue
            t = self._find_loaded_slave(bid, exclude=s.rank, incoming=count)
            if t is not None:
                yield from self._emit_send_force(s, t, bid)

        # Step 2: Load a block S has > N_L waiting lines in.
        assigned = False
        heavy = [(c, b) for c, b in s.waiting_blocks()
                 if c > cfg.load_threshold]
        if heavy:
            _, bid = heavy[0]
            yield from self._emit_load(s, bid)
            assigned = True
            # Step 3: the loaded-block set changed; other slaves may now
            # Send_force their waiting lines (in that block) to S.
            for rank in self.slaves:
                if rank == s.rank:
                    continue
                t = self.records[rank]
                moved = t.lines_by_block.get(bid, 0)
                if moved > 0 and bid not in t.loaded \
                        and s.total_lines + moved <= cfg.overload_limit:
                    yield from self._emit_send_force(t, s, bid)

        # Step 4: Assign_loaded — pool seeds in a block S already has.
        if not assigned:
            for bid in sorted(s.loaded):
                if self.pool.get(bid):
                    yield from self._emit_assign(s, bid)
                    assigned = True
                    break

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
            candidates = [(self.records[r].total_lines, r)
                          for r in self.slaves if r != s.rank
                          and self.records[r].total_lines > 0]
            if candidates:
                most = max(c for c, _ in candidates)
                busiest = [r for c, r in candidates if c == most]
                target = self.records[
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

    def _assignment_pass(self) -> Generator[Request, Any, None]:
        starving = sorted(self.needs_work.copy())
        if not starving:
            return
        obs = self.ctx.obs
        with (obs.span(self.ctx.rank, "master.assign_pass",
                       starving=len(starving))
              if obs.enabled else NULL_SPAN):
            for rank in starving:
                if rank in self.needs_work:
                    yield from self._try_assign(rank)


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #
N_BLOCKS = 27


class FakeComm:
    """Records what the master sends; ``on_send`` runs before each send,
    i.e. right after whatever the previous instruction mutated."""

    def __init__(self, on_send=None) -> None:
        self.sent: List[tuple] = []
        self.on_send = on_send

    def send(self, dest, kind, payload,
             nbytes) -> Generator[Request, Any, None]:
        if self.on_send is not None:
            self.on_send()
        self.sent.append((dest, kind, plain(payload), nbytes))
        return
        yield


def plain(value):
    """A message payload as nested tuples and bytes, comparable by ``==``."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__,
                *(plain(getattr(value, name))
                  for name in value.__dataclass_fields__))
    if isinstance(value, dict):
        return tuple((k, plain(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(plain(v) for v in value)
    return value


def check_totals(master: HybridMaster) -> None:
    """Every running total equals a from-scratch recomputation."""
    assert master._pool_count == sum(len(v) for v in master.pool.values())
    for r in master.records.values():
        assert r.queued == sum(r.lines_by_block.values())
        assert r.total_lines == r.queued + r.advanceable
        if r._waiting is not None:
            assert r._waiting == OracleRecord(
                r.rank, r.lines_by_block, r.loaded).waiting_blocks()


def build(cls, rank, masters, slaves, config, pool, cache_blocks):
    field_ = UniformField(domain=Bounds.cube(0.0, 1.0))
    problem = ProblemSpec(field=field_, seeds=np.full((4, 3), 0.5),
                          blocks_per_axis=(3, 3, 3),
                          cells_per_block=(3, 3, 3))
    ctx = SimpleNamespace(
        rank=rank, comm=FakeComm(), trace=SimpleNamespace(enabled=False),
        obs=SimpleNamespace(enabled=False),
        spec=MachineSpec(n_ranks=len(masters) + len(slaves),
                         cache_blocks=cache_blocks))
    master = cls(ctx, problem, config, slaves=slaves, masters=masters,
                 pool=copy.deepcopy(pool))
    if cls is HybridMaster:
        ctx.comm.on_send = lambda: check_totals(master)
    return master


def drain(gen) -> None:
    for request in gen:
        raise AssertionError(f"fake comm never blocks, got {request!r}")


def state(master: HybridMaster):
    return (master.ctx.comm.sent, sorted(master.needs_work),
            sorted(master._hinted), master._rng.bit_generator.state,
            plain(master.pool), master.pool_size(),
            [(r.rank, r.lines_by_block, r.loaded, r.advanceable,
              r.total_lines, r.waiting_blocks())
             for r in master.records.values()],
            master._request_outstanding, sorted(master._dry_masters),
            master._group_term_delta, master._global_count)


def random_pool(rng, n_seeds: int):
    pool: Dict[int, list] = {}
    for sid in range(n_seeds):
        pool.setdefault(int(rng.integers(N_BLOCKS)), []).append(
            (sid, rng.random(3)))
    return pool


def random_inbox(rng, masters, rank, slaves, endgame=False) -> list:
    """One turn's messages.  In the ``endgame`` most statuses come from
    slaves that ran dry (no lines at all) while a few busy slaves still
    hold waiting lines, so hints go out and stay out across turns."""
    peers = [m for m in masters if m != rank]
    inbox = []
    for _ in range(int(rng.integers(0, 9 if endgame else 5))):
        kind = rng.random()
        if endgame and kind < 0.8:
            payload = msg.SlaveStatus(
                slave=int(rng.choice(slaves)), lines_by_block={},
                loaded_blocks=tuple(int(b) for b in rng.choice(
                    N_BLOCKS, size=int(rng.integers(0, 7)), replace=False)),
                advanceable=0, terminated_delta=int(rng.integers(0, 3)))
            src = payload.slave
        elif kind < 0.75 or not peers or endgame:
            blocks = rng.choice(N_BLOCKS, size=int(rng.integers(0, 5)),
                                replace=False)
            loaded = rng.choice(N_BLOCKS, size=int(rng.integers(0, 7)),
                                replace=False)
            boost = 0
            if rng.random() < 0.3:
                # Lines queued only in loaded blocks: a starving slave
                # that still counts as busy (it may be its own busiest).
                loaded = np.union1d(loaded, blocks)
                if rng.random() < 0.5:
                    # Far above any other record: the sole busiest.
                    boost = 100
            payload = msg.SlaveStatus(
                slave=int(rng.choice(slaves)),
                lines_by_block={int(b): int(rng.integers(0, 13)) + boost
                                for b in blocks},
                loaded_blocks=tuple(int(b) for b in loaded),
                advanceable=int(rng.integers(0, 4) * (rng.random() < 0.4)),
                terminated_delta=int(rng.integers(0, 3)))
            src = payload.slave
        elif kind < 0.93:
            grant = {int(b): ((900 + int(b),), rng.random((1, 3)))
                     for b in rng.choice(N_BLOCKS, replace=False,
                                         size=int(rng.integers(0, 3)))}
            payload, src = msg.SeedGrant(by_block=grant), int(rng.choice(peers))
        else:
            src = int(rng.choice(peers))
            payload = msg.SeedRequest(requester=src)
        inbox.append(SimpleNamespace(src=src, payload=payload))
    return inbox


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_incremental_master_decides_like_the_parent_commit(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_masters = data.draw(st.integers(1, 4))
    masters = list(range(n_masters))
    slaves = list(range(n_masters, n_masters + data.draw(st.integers(2, 32))))
    endgame = data.draw(st.booleans())
    rank = data.draw(st.sampled_from(masters))
    config = HybridConfig(
        assignment_quantum=data.draw(st.integers(1, 4)),
        overload_limit=data.draw(st.integers(4, 30)),
        load_threshold=data.draw(st.integers(1, 10)),
        slaves_per_master=len(slaves),
        locality_bias=data.draw(st.booleans()),
        duplication_budget=data.draw(st.integers(1, 6)),
        seed=data.draw(st.integers(0, 5)))
    n_seeds = data.draw(st.integers(0, 3 if endgame else 25))
    args = (rank, masters, slaves, config, random_pool(rng, n_seeds),
            data.draw(st.integers(2, 8)))
    new, old = build(HybridMaster, *args), build(OracleMaster, *args)
    for master in (new, old):
        master._handle_out_of_domain_seeds()
        drain(master._initial_assignment())
    assert state(new) == state(old)
    for _ in range(data.draw(st.integers(3, 30))):
        inbox = random_inbox(rng, masters, rank, slaves, endgame)
        for master in (new, old):
            # One turn of ``HybridMaster.run``'s loop.
            drain(master._forward_terminations())
            drain(master._assignment_pass())
            drain(master._maybe_request_seeds())
            drain(master._process(copy.deepcopy(inbox)))
        check_totals(new)
        assert state(new) == state(old)


def test_record_totals_follow_every_mutator():
    r = SlaveRecord(rank=3, lines_by_block={1: 4, 2: 0, 5: 7}, loaded={5},
                    advanceable=2)
    assert (r.queued, r.total_lines) == (11, 13)
    assert r.waiting_blocks() == [(4, 1)]
    assert r.waiting_blocks() is r.waiting_blocks()
    r.mark_loaded(1)
    assert r.waiting_blocks() == [] and r.total_lines == 13
    assert r.take(5) == 7 and r.take(5) == 0
    assert (r.queued, r.total_lines) == (4, 6)
    r.advanceable = 9
    assert r.total_lines == 13
    r.refresh({8: 3}, set(), 0)
    assert (r.queued, r.total_lines, r.waiting_blocks()) == (3, 3, [(3, 8)])
