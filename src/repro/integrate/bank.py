"""Trajectory bank: integrate each curve once, replay per rank and per run.

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
blocks and round budget.

Problem-scoped, and shared by every run handed the bank
(``run_streamlines(..., bank=)``; by default a run builds and drops its
own): the seed curves' trial rows, crossings, read-only vertices and final
status, and the growing pool.  Run-scoped, dropped by
:meth:`TrajectoryBank.end_run`: each curve's replay cursor and the tapes
of strays (dynamically created seeds, hand-built lines).
"""

from __future__ import annotations

import copy
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.integrate.pooled import (BlockPool, PoolResult, TrialTape,
                                     advance_pool)
from repro.integrate.streamline import Status, Streamline


class _Tape:
    """One curve's recorded trials and how far replay has consumed them.

    ``acc``/``blk``/``h``/``t`` are this curve's rows of the trace's
    :class:`TrialTape`, ``n`` trials long (``acc`` is its accepted-step
    count, the index into ``verts``).  ``cross`` lists the trials that
    changed block, ``dest`` the blocks entered.  ``cursor``/``a``/``ci``
    count trials, vertices and crossings consumed; ``state``/``pos`` are
    what replay last wrote to the line — the run-scoped part: each run
    replays its own shallow copy of a seed's never-replayed tape.
    """

    __slots__ = ("acc", "blk", "h", "t", "n", "cross", "dest",
                 "verts", "status", "cursor", "a", "ci", "state", "pos")

    def holds(self, line: Streamline) -> bool:
        """Whether ``line`` is exactly where this tape's cursor left it."""
        return ((line.h, line.time, line.steps, line.block_id) == self.state
                and (line.position is self.pos
                     or np.array_equal(line.position, self.pos)))


class TrajectoryBank:
    """Every curve of one problem, traced once and replayed on demand."""

    def __init__(self, problem, store) -> None:
        self.problem = problem
        self.store = store
        self._pool: Optional[BlockPool] = None
        #: Problem-scoped: sid -> the seed's tape, never replayed itself;
        #: ``None`` until the first demand traces the seeds.
        self._seeds: Optional[Dict[int, _Tape]] = None
        #: Run-scoped: sid -> the run's copy of a seed tape, or a stray's
        #: tape; ``None`` until the run's first demand.
        self._tapes: Optional[Dict[int, _Tape]] = None

    def end_run(self) -> None:
        """Forget the run: its cursors and its strays' tapes."""
        self._tapes = None

    def _trace(self, lines: List[Streamline],
               tapes: Dict[int, _Tape]) -> None:
        """Advance fresh tracer ``lines`` to termination in one lockstep
        batch and file one tape per line in ``tapes`` under its ``sid``."""
        if not lines:
            return
        p = self.problem
        if self._pool is None:
            self._pool = BlockPool(
                [self.store.load(b)
                 for b in sorted({ln.block_id for ln in lines})],
                loader=self.store.load, n_blocks=p.n_blocks)
        states = [(ln.h, ln.time, ln.steps, ln.block_id) for ln in lines]
        # Room for one rejected trial in 16 before the columns grow.
        log = TrialTape(len(lines), p.integ.max_steps * 17 // 16 + 2)
        advance_pool(lines, self._pool, p.field.domain, p.decomposition,
                     p.integ, tape=log)
        acc, blk, n = log.steps, log.blk, log.n
        acc -= np.array([state[2] for state in states],
                        dtype=acc.dtype)[:, None]
        # A trial crossed when it ends in another block than the one before.
        crossed = np.empty(blk.shape, dtype=bool)
        crossed[:, 0] = blk[:, 0] != [state[3] for state in states]
        np.not_equal(blk[:, 1:], blk[:, :-1], out=crossed[:, 1:])
        crossed &= np.arange(blk.shape[1]) < n[:, None]
        rows, cols = np.nonzero(crossed)
        cut = np.searchsorted(rows, np.arange(len(lines) + 1)).tolist()
        dest, cols, n = blk[rows, cols].tolist(), cols.tolist(), n.tolist()
        for i, line in enumerate(lines):
            tape = tapes[line.sid] = _Tape()
            tape.acc, tape.blk, tape.h, tape.t = (
                acc[i], blk[i], log.h[i], log.t[i])
            tape.n, tape.cross = n[i], cols[cut[i]:cut[i + 1]]
            tape.dest = dest[cut[i]:cut[i + 1]]
            tape.verts, tape.status = line.segments[0], line.status
            tape.verts.flags.writeable = False  # runs share these vertices
            tape.cursor = tape.a = tape.ci = 0
            tape.state, tape.pos = states[i], tape.verts[0]

    def tapes_for(self, lines: Sequence[Streamline]) -> List[_Tape]:
        """The tape of each line, positioned at the line's state.  The
        bank's first demand traces all in-domain seeds and a run's first
        demand rewinds them; a line with no tape, or not where its cursor
        left it (a dynamically created seed, a hand-built line), is
        traced from its state on sight."""
        if self._seeds is None:
            self._seeds = {}
            p = self.problem
            seeds = [Streamline(sid=sid, seed=p.seeds[sid], block_id=int(bid))
                     for sid, bid in enumerate(p.seed_blocks) if bid >= 0]
            self._trace(seeds, self._seeds)
        if self._tapes is None:
            self._tapes = {sid: copy.copy(tape)
                           for sid, tape in self._seeds.items()}
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
        self._trace(stray, tapes)
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
        last = c1 - 1
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
