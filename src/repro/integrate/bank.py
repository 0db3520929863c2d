"""Run-scoped trajectory bank: integrate each curve once, replay per rank.

The parallel algorithms differ only in *where and when* a curve is
advanced, never in the curve itself.  So on the first demand the bank
advances all of a problem's seeds to termination in wide lockstep
:func:`advance_pool` batches over one growing :class:`BlockPool`, keeping
per curve a *tape* of its trial steps (accepted count, block, ``h`` and
``t`` after each trial, final status) and its vertex array.  A simulated
rank's pooled advect call is then *replayed* from the tapes
(:func:`replay_pool`): host numerics run at wide-batch cost while every
per-call outcome — hence every simulated clock, metric and artifact — is
what the lockstep kernel would have produced for that rank's resident
blocks and round budget.  A bank lives for one ``run_streamlines`` call.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.integrate.fixed import make_integrator
from repro.integrate.pooled import BlockPool, PoolResult, advance_pool
from repro.integrate.streamline import Status, Streamline

#: Most curves one lockstep trace batch advances.  Wider is faster, but the
#: host benchmark cannot resolve a steps/s gain much beyond 3x; widen once
#: its baseline is re-based (docs/performance.md, "Trajectory bank").
TRACE_WIDTH = 64


class _Tape:
    """One curve's recorded trials and how far replay has consumed them.

    ``acc``/``blk``/``h``/``t`` are the trace's shared trial arrays (this
    curve owns ``lo .. lo + n``; ``acc`` is its accepted-step count, the
    index into ``verts``).  ``cross`` lists the trials that changed block,
    ``dest`` the blocks entered.  ``cursor``/``a``/``ci`` count trials,
    vertices and crossings consumed; ``state``/``pos`` are what replay
    last wrote to the line.
    """

    __slots__ = ("acc", "blk", "h", "t", "lo", "n", "cross", "dest",
                 "verts", "status", "cursor", "a", "ci", "state", "pos")

    def holds(self, line: Streamline) -> bool:
        """Whether ``line`` is exactly where this tape's cursor left it."""
        return ((line.h, line.time, line.steps, line.block_id) == self.state
                and (line.position is self.pos
                     or np.array_equal(line.position, self.pos)))


class TrajectoryBank:
    """Every curve of one run, traced once and replayed on demand."""

    def __init__(self, problem, store) -> None:
        self.problem = problem
        self.store = store
        self.integrator = make_integrator(
            problem.integrator, rtol=problem.integ.rtol,
            atol=problem.integ.atol)
        self._pool: Optional[BlockPool] = None
        #: sid -> tape; ``None`` until the first demand traces the seeds.
        self._tapes: Optional[Dict[int, _Tape]] = None

    def _trace(self, lines: List[Streamline]) -> None:
        """Advance fresh tracer ``lines`` to termination in one lockstep
        batch and file one tape per line under its ``sid``."""
        p = self.problem
        if self._pool is None:
            self._pool = BlockPool(
                [self.store.load(b)
                 for b in sorted({ln.block_id for ln in lines})],
                loader=self.store.load)
        states = [(ln.h, ln.time, ln.steps, ln.block_id) for ln in lines]
        chunks: List[tuple] = []
        advance_pool(lines, self._pool, p.field.domain, p.decomposition,
                     self.integrator, p.integ, tape=chunks)
        idx, acc, blk, h, t = (np.concatenate(col) for col in zip(*chunks))
        order = np.argsort(idx, kind="stable")
        acc, blk, h, t = np.cumsum(acc[order]), blk[order], h[order], t[order]
        # Line i's trials are lo[i]:lo[i+1]; make acc count per line.
        lo = np.searchsorted(idx[order], np.arange(len(lines) + 1))
        acc -= np.repeat(np.concatenate(([0], acc))[lo[:-1]], np.diff(lo))
        before = np.empty_like(blk)
        before[1:] = blk[:-1]
        before[lo[:-1]] = [state[3] for state in states]
        crossed = np.flatnonzero(blk != before)
        cut = np.searchsorted(crossed, lo).tolist()
        dest = blk[crossed].tolist()
        lo, crossed = lo.tolist(), crossed.tolist()
        for i, line in enumerate(lines):
            tape = self._tapes[line.sid] = _Tape()
            tape.acc, tape.blk, tape.h, tape.t = acc, blk, h, t
            tape.lo, tape.n = lo[i], lo[i + 1] - lo[i]
            tape.cross = [c - lo[i] for c in crossed[cut[i]:cut[i + 1]]]
            tape.dest = dest[cut[i]:cut[i + 1]]
            tape.verts, tape.status = line.segments[0], line.status
            tape.cursor = tape.a = tape.ci = 0
            tape.state, tape.pos = states[i], tape.verts[0]

    def tapes_for(self, lines: Sequence[Streamline]) -> List[_Tape]:
        """The tape of each line, positioned at the line's state.  The
        first demand traces all in-domain seeds; a line with no tape, or
        not where its cursor left it (a dynamically created seed, a
        hand-built line), is traced from its state on sight."""
        if self._tapes is None:
            self._tapes = {}
            p = self.problem
            seeds = [Streamline(sid=sid, seed=p.seeds[sid], block_id=int(bid))
                     for sid, bid in enumerate(p.seed_blocks) if bid >= 0]
            for i in range(0, len(seeds), TRACE_WIDTH):
                self._trace(seeds[i:i + TRACE_WIDTH])
        tapes = self._tapes
        stray = []
        for line in lines:
            if line.status is not Status.ACTIVE:
                raise ValueError(f"streamline {line.sid} is not active "
                                 f"({line.status.value})")
            tape = tapes.get(line.sid)
            if tape is None or not tape.holds(line):
                stray.append(Streamline(
                    sid=line.sid, seed=line.seed, position=line.position,
                    h=line.h, time=line.time, steps=line.steps,
                    block_id=line.block_id))
        for i in range(0, len(stray), TRACE_WIDTH):
            self._trace(stray[i:i + TRACE_WIDTH])
        return [tapes[line.sid] for line in lines]


def replay_pool(lines: Sequence[Streamline], resident: FrozenSet[int],
                bank: TrajectoryBank,
                round_limit: Optional[int] = None) -> PoolResult:
    """What :func:`advance_pool` over a pool of the ``resident`` blocks
    would do to ``lines`` in ``round_limit`` rounds, read off the bank:
    each line consumes trials from its tape cursor until one lands it in
    a block outside ``resident`` (exited), the tape ends (terminated), or
    ``round_limit`` trials are used (in_pool).
    """
    if round_limit is not None and round_limit < 1:
        raise ValueError(f"round_limit must be >= 1, got {round_limit}")
    result = PoolResult()
    for line, tape in zip(lines, bank.tapes_for(lines)):
        c0 = tape.cursor
        c1 = tape.n if round_limit is None else min(tape.n, c0 + round_limit)
        cross, ci, leaves = tape.cross, tape.ci, False
        while ci < len(cross) and cross[ci] < c1:
            ci += 1
            if tape.dest[ci - 1] not in resident:
                c1, leaves = cross[ci - 1] + 1, True
                break
        last = tape.lo + c1 - 1
        a0, a1 = tape.a, int(tape.acc[last])
        # Vertices are views into the tape; a line with no geometry yet
        # also gets the vertex it starts from, as in the kernel.
        line.append_segment(tape.verts[a0 + bool(line.segments):a1 + 1])
        line.position = tape.verts[a1]
        line.h = float(tape.h[last])
        line.time = float(tape.t[last])
        line.steps += a1 - a0
        result.attempted_steps += c1 - c0
        result.accepted_steps += a1 - a0
        if leaves:
            line.block_id = tape.dest[ci - 1]
            result.exited.append(line)
        elif c1 == tape.n:
            line.terminate(tape.status)
            result.terminated.append(line)
        else:
            line.block_id = int(tape.blk[last])
            result.in_pool.append(line)
        tape.cursor, tape.a, tape.ci = c1, a1, ci
        tape.pos = line.position
        tape.state = (line.h, line.time, line.steps, line.block_id)
    return result
