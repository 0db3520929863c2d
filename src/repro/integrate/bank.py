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
of strays (lines no seed tape holds, such as hand-built ones).

A big seed trace (:func:`_forks`) is streamed: the same
:func:`advance_pool` call runs in a forked tracer
(:mod:`repro.integrate.tracer`) that writes the :class:`TrialTape` into
shared memory and publishes each finished round, and a replay waits per
line only until its outcome is decided by published rounds.  Replay never
reads an unpublished trial, so every result is byte-identical to the
in-process trace.
"""

from __future__ import annotations

import copy
import os
import sys
import threading
import weakref
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.integrate.config import IntegratorConfig
from repro.integrate.pooled import (BlockPool, PoolResult, TrialTape,
                                     advance_pool)
from repro.integrate.streamline import Status, Streamline
from repro.integrate.tracer import Tracer, shared

#: Seed-steps (in-domain seeds x ``max_steps``) from which a bank streams
#: its seed trace from a forked tracer; smaller traces run in-process.
FORK_MIN_WORK = 20_000


def _forks(n_lines: int, integ: IntegratorConfig) -> bool:
    """Whether a seed trace of ``n_lines`` curves streams from a forked
    tracer: the platform forks, no other thread runs (the child would
    inherit, held forever, any lock another thread held), a second CPU
    is usable and no sibling worker of a process pool may be busy on it,
    and the trace is big enough to pay for the fork."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) > 1
            and not _in_process_pool()
            and n_lines * integ.max_steps >= FORK_MIN_WORK)


def _in_process_pool() -> bool:
    """Whether this process is a ``multiprocessing`` child, such as a
    sweep executor's local worker: the pool's workers already share the
    CPUs this process sees, so none is left idle.  Read off ``sys.modules``,
    never imported: a process that has not imported ``multiprocessing``
    is not one of its children."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


class _Tape:
    """One curve's recorded trials and how far replay has consumed them.

    ``acc``/``blk``/``h``/``t`` are this curve's columns of the trace's
    :class:`TrialTape`, ``n`` trials long (``acc`` is its accepted-step
    count, the index into ``verts``).  ``cross`` lists the trials that
    changed block, ``dest`` the blocks entered.  ``cursor``/``a``/``ci``
    count trials, vertices and crossings consumed; ``state``/``pos`` are
    what replay last wrote to the line — the run-scoped part: each run
    replays its own shallow copy of a seed's never-replayed tape.

    A streamed tape (``src`` is its :class:`_Trace`, ``row`` its column)
    has ``n`` and ``status`` ``None`` until the curve is final; its
    crossing lists grow as rounds land and are shared with every copy.
    """

    __slots__ = ("acc", "blk", "h", "t", "n", "cross", "dest", "verts",
                 "status", "src", "row", "cursor", "a", "ci", "state", "pos")

    def holds(self, line: Streamline) -> bool:
        """Whether ``line`` is exactly where this tape's cursor left it."""
        return ((line.h, line.time, line.steps, line.block_id) == self.state
                and (line.position is self.pos
                     or np.array_equal(line.position, self.pos)))


class _Trace:
    """The crossings of one :class:`TrialTape`'s curves, extracted as its
    rounds are published; with a :class:`Tracer`, the rounds land while
    the parent replays (:meth:`settle`)."""

    def __init__(self, log: TrialTape, lines: Sequence[Streamline],
                 tracer: Optional[Tracer] = None) -> None:
        self.log = log
        self.tracer = tracer
        self.cross: List[List[int]] = [[] for _ in lines]
        self.dest: List[List[int]] = [[] for _ in lines]
        self._prev = np.array([ln.block_id for ln in lines], dtype=np.int32)
        self._scanned = 0

    def scan(self, rounds: int) -> None:
        """File the crossings of every round below ``rounds``."""
        r0 = self._scanned
        if rounds <= r0:
            return
        blk = self.log.blk[r0:rounds]
        # A trial crossed when it ends in another block than the one before.
        crossed = np.empty(blk.shape, dtype=bool)
        np.not_equal(blk[0], self._prev, out=crossed[0])
        np.not_equal(blk[1:], blk[:-1], out=crossed[1:])
        crossed &= np.arange(r0, rounds)[:, None] < self.log.n
        lines, cols = np.nonzero(crossed.T)
        cross, dest = self.cross, self.dest
        for i, r, b in zip(lines.tolist(), (cols + r0).tolist(),
                           blk[cols, lines].tolist()):
            cross[i].append(r)
            dest[i].append(b)
        self._prev, self._scanned = blk[-1], rounds

    def settle(self, tape: _Tape, c0: int, limit: Optional[int],
               resident: FrozenSet[int]) -> int:
        """Wait until replaying ``tape`` from trial ``c0`` (at most
        ``limit`` trials) is decided: it leaves ``resident`` at a
        published crossing, a round past its window is published, or the
        curve is final — once a round past its last trial is published,
        or the tracer has finished.  Returns the final trial count, or
        the published one (a bound the replay stops before).  Once the
        tracer failed, every call raises, whatever it had published."""
        n, row, tracer = self.log.n, tape.row, self.tracer
        tracer.check()
        end = None if limit is None else c0 + limit
        while True:
            published = tracer.published
            if tracer.done or n[row] < published:
                tape.n, tape.status = int(n[row]), self.log.status(row)
                return tape.n
            if end is not None and end < published:
                return published
            for j in range(tape.ci, len(tape.cross)):
                if end is not None and tape.cross[j] >= end:
                    break
                if tape.dest[j] not in resident:
                    return published
            self.scan(tracer.pump())


def _trace_in_child(lines: List[Streamline], problem, store,
                    log: TrialTape, publish) -> None:
    """The forked tracer's work: the seed trace over a pool of its own."""
    log.publish = publish
    pool = BlockPool([store.load(b)
                      for b in sorted({ln.block_id for ln in lines})],
                     loader=store.load, n_blocks=problem.n_blocks)
    advance_pool(lines, pool, problem.field.domain, problem.decomposition,
                 problem.integ, tape=log)


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
        #: Kills and reaps the forked tracer, if any: on :meth:`close`,
        #: or when the bank is dropped.
        self._closer: Optional[weakref.finalize] = None

    def end_run(self) -> None:
        """Forget the run: its cursors and its strays' tapes."""
        self._tapes = None

    def close(self) -> None:
        """Stop and reap the seed tracer, if one was forked (a run that
        built its own bank ends with this; a dropped bank does it too).
        Replaying a curve the tracer had not finished then raises."""
        if self._closer is not None:
            self._closer()

    def _trace(self, lines: List[Streamline],
               fork: bool = False) -> Dict[int, _Tape]:
        """One tape per fresh tracer line, by ``sid``, of one lockstep
        batch to termination: in-process, or streamed from a forked
        tracer (``fork``; seeds only, whose step counts start at 0)."""
        p = self.problem
        states = [(ln.h, ln.time, ln.steps, ln.block_id) for ln in lines]
        starts = [ln.position for ln in lines]
        src = self._fork(lines) if fork else None
        if src is not None:
            log, trace = src.log, src
        else:
            if self._pool is None:
                self._pool = BlockPool(
                    [self.store.load(b)
                     for b in sorted({ln.block_id for ln in lines})],
                    loader=self.store.load, n_blocks=p.n_blocks)
            log = TrialTape(len(lines), p.integ)
            advance_pool(lines, self._pool, p.field.domain, p.decomposition,
                         p.integ, tape=log)
            rounds = int(log.n.max())
            log.steps[:rounds] -= np.array([state[2] for state in states],
                                           dtype=np.int32)
            trace, src = _Trace(log, lines), None
            trace.scan(rounds)
        # Runs share these vertices (a forked tracer's copy stays writable).
        log.verts.flags.writeable = False
        tapes = {}
        for i, line in enumerate(lines):
            tape = tapes[line.sid] = _Tape()
            tape.acc, tape.blk, tape.h, tape.t = (
                log.steps[:, i], log.blk[:, i], log.h[:, i], log.t[:, i])
            tape.cross, tape.dest = trace.cross[i], trace.dest[i]
            tape.verts, tape.src, tape.row = log.verts[i], src, i
            if src is None:
                tape.n, tape.status = int(log.n[i]), log.status(i)
            else:
                tape.n = tape.status = None
            tape.cursor = tape.a = tape.ci = 0
            tape.state, tape.pos = states[i], starts[i]
        return tapes

    def _fork(self, lines: List[Streamline]) -> Optional[_Trace]:
        """Start the forked tracer of ``lines``; ``None`` when the system
        has no memory or process to spare (the caller traces in-process)."""
        p, store = self.problem, self.store
        try:
            log = TrialTape(len(lines), p.integ, alloc=shared)
            tracer = Tracer(lambda publish: _trace_in_child(
                lines, p, store, log, publish))
        except OSError:
            return None
        self._closer = weakref.finalize(self, tracer.close)
        return _Trace(log, lines, tracer)

    def tapes_for(self, lines: Sequence[Streamline]) -> List[_Tape]:
        """The tape of each line, positioned at the line's state.  The
        bank's first demand traces all in-domain seeds (streamed from a
        forked tracer when :func:`_forks` says so) and a run's first
        demand rewinds them; a line with no tape, or not where its cursor
        left it (a hand-built line), is traced in-process from its state
        on sight."""
        if self._seeds is None:
            p = self.problem
            seeds = [Streamline(sid=sid, seed=p.seeds[sid], block_id=int(bid))
                     for sid, bid in enumerate(p.seed_blocks) if bid >= 0]
            self._seeds = (self._trace(seeds, _forks(len(seeds), p.integ))
                           if seeds else {})
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
        if stray:
            tapes.update(self._trace(stray))
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
        n = tape.n
        if n is None:
            n = tape.src.settle(tape, c0, round_limit, resident)
        c1 = n if round_limit is None else min(n, c0 + round_limit)
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
