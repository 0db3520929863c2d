"""The trajectory bank with its seed trace streamed from a forked tracer.

The cases imported below run unchanged on this path: this module
parametrizes their ``trace_path`` fixture with ``True``, which forces the
fork and fails a test that leaves a tracer unreaped.  The rest drive the
tracer's failure paths: a child that raises, a child that dies, and a
run or bank that ends while the child still traces."""

import os
import signal
import time

import numpy as np
import pytest

import repro.core.base as core_base
import repro.integrate.bank as bank_mod
import repro.integrate.tracer as tracer_mod
from repro.core.driver import run_streamlines
from repro.integrate.bank import TrajectoryBank, replay_pool
from repro.integrate.pooled import advance_pool
from repro.sim.engine import ProcessFailure
from repro.sim.machine import MachineSpec
from repro.storage.store import BlockStore
from repro.integrate.streamline import Status, Streamline
from tests.test_integrate_bank import (  # noqa: F401 - collected here
    direct_advance,
    is_child,
    line_state,
    result_state,
    test_bank_dies_with_its_run_without_the_cyclic_gc,
    test_each_run_traces_once,
    test_hand_built_line_is_traced_from_its_state,
    test_mid_flight_strays_match_the_per_call_kernel,
    test_oom_mid_replay_leaves_a_shared_bank_clean,
    test_oom_while_seeding_never_integrates,
    test_replay_equals_direct_kernel_at_every_call,
    test_runs_sharing_a_bank_equal_runs_on_their_own,
    test_segments_are_views_into_the_tape,
    test_strays_of_one_run_are_invisible_to_the_next,
    test_tape_rows_grow_when_the_controller_rejects_often,
    tokamak_problem,
    trace_path,
)

pytestmark = pytest.mark.parametrize("trace_path", [True], indirect=True,
                                     ids=["forked"])


def sabotaged(fault):
    """An ``advance_pool`` for the tracer child that publishes three
    rounds and then meets ``fault``."""
    def advance(lines, pool, domain, decomposition, integ, tape):
        publish = tape.publish

        def then_fault(rounds):
            publish(rounds)
            if rounds >= 3:
                fault()

        tape.publish = then_fault
        return advance_pool(lines, pool, domain, decomposition, integ,
                            tape=tape)
    return advance


def not_converging():
    raise RuntimeError("advance_pool exceeded 3 rounds; "
                       "step controller is not converging")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def stalled():
    time.sleep(30)


def run(problem):
    return run_streamlines(problem, algorithm="ondemand",
                           machine=MachineSpec(n_ranks=2))


def test_the_trace_is_forked(small_problem, trace_path):
    assert run(small_problem).ok
    assert len(trace_path) == 1


def test_an_exception_in_the_tracer_reaches_the_run(small_problem,
                                                     monkeypatch,
                                                     trace_path):
    monkeypatch.setattr(bank_mod, "advance_pool", sabotaged(not_converging))
    with pytest.raises(ProcessFailure,
                       match="advance_pool exceeded 3 rounds") as info:
        run(small_problem)
    assert isinstance(info.value.cause, RuntimeError)
    assert str(info.value.cause).startswith(
        "trajectory tracer failed: RuntimeError: advance_pool exceeded")
    assert len(trace_path) == 1 and not is_child(trace_path[0])


def test_a_tracer_that_dies_fails_the_run_instead_of_hanging(
        small_problem, monkeypatch, trace_path):
    monkeypatch.setattr(bank_mod, "advance_pool", sabotaged(killed))
    with pytest.raises(ProcessFailure,
                       match=rf"tracer died \(signal {signal.SIGKILL}\)"):
        run(small_problem)
    assert len(trace_path) == 1 and not is_child(trace_path[0])


def test_a_failed_tracer_fails_every_later_replay(small_problem,
                                                  monkeypatch):
    monkeypatch.setattr(bank_mod, "advance_pool", sabotaged(not_converging))
    bank = TrajectoryBank(small_problem, BlockStore(
        small_problem.field, small_problem.decomposition))
    kwargs = dict(algorithm="ondemand", store=bank.store, bank=bank,
                  machine=MachineSpec(n_ranks=2))
    for _ in range(2):
        with pytest.raises(ProcessFailure, match="exceeded 3 rounds"):
            run_streamlines(small_problem, **kwargs)
        bank.end_run()


def then_fails(lines, pool, domain, decomposition, integ, tape):
    """An ``advance_pool`` for the tracer child that publishes every
    round of the trace and then raises."""
    advance_pool(lines, pool, domain, decomposition, integ, tape=tape)
    not_converging()


def seed_lines(problem):
    return [Streamline(sid=sid, seed=problem.seeds[sid], block_id=int(bid))
            for sid, bid in enumerate(problem.seed_blocks) if bid >= 0]


def test_a_tracer_failing_after_its_last_round_fails_every_later_replay(
        small_problem, monkeypatch):
    """Every curve but the longest is final in rounds published before
    the failure; replaying any of them afterwards still raises."""
    monkeypatch.setattr(bank_mod, "advance_pool", then_fails)
    p = small_problem
    bank = TrajectoryBank(p, BlockStore(p.field, p.decomposition))
    with pytest.raises(ProcessFailure, match="exceeded 3 rounds"):
        run_streamlines(p, algorithm="ondemand", store=bank.store,
                        bank=bank, machine=MachineSpec(n_ranks=2))
    bank.end_run()
    everywhere = frozenset(range(p.n_blocks))
    for line in seed_lines(p):
        with pytest.raises(RuntimeError, match="exceeded 3 rounds"):
            replay_pool([line], everywhere, bank)
    bank.close()


def test_a_closed_bank_fails_the_replay_of_an_unfinished_trace(
        small_problem, monkeypatch, trace_path):
    monkeypatch.setattr(bank_mod, "advance_pool", sabotaged(stalled))
    p = small_problem
    bank = TrajectoryBank(p, BlockStore(p.field, p.decomposition))
    bank.tapes_for([])
    bank.close()
    assert not is_child(trace_path[0])
    everywhere = frozenset(range(p.n_blocks))
    for line in seed_lines(p):
        with pytest.raises(RuntimeError, match="closed before it finished"):
            replay_pool([line], everywhere, bank)


def test_a_run_that_raises_mid_trace_kills_and_reaps_the_tracer(
        small_problem, monkeypatch, trace_path):
    monkeypatch.setattr(bank_mod, "advance_pool", sabotaged(stalled))

    def failing(lines, resident, bank, round_limit):
        bank.tapes_for(lines)  # the first demand forks the tracer
        raise ValueError("the run ends here")

    monkeypatch.setattr(core_base, "advance_pool", failing)
    start = time.monotonic()
    with pytest.raises(ProcessFailure, match="the run ends here"):
        run(small_problem)
    assert time.monotonic() - start < 20  # killed, not waited for
    assert len(trace_path) == 1 and not is_child(trace_path[0])


def test_a_bank_dropped_mid_trace_kills_and_reaps_the_tracer(
        small_problem, monkeypatch, trace_path):
    monkeypatch.setattr(bank_mod, "advance_pool", sabotaged(stalled))
    bank = TrajectoryBank(small_problem, BlockStore(
        small_problem.field, small_problem.decomposition))
    bank.tapes_for([])
    [pid] = trace_path
    assert is_child(pid)
    del bank
    assert not is_child(pid)


def test_the_tracer_cpu_is_charged_to_the_host_probe(small_problem,
                                                     monkeypatch):
    charged = []
    monkeypatch.setattr(tracer_mod, "charge_child_cpu", charged.append)
    assert run(small_problem).ok
    assert len(charged) == 1 and charged[0] > 0


class LazyTracer:
    """A tracer that has finished in this process but shows its tape one
    round per :meth:`pump`, as a child standing exactly at the frontier
    would: no trial count or stop code past the published rounds."""

    logs = []  # the tape each tracer writes, filled by ``tapes_into``

    def __init__(self, trace):
        self.published, self.done, self._rounds = 0, False, 0

        def publish(rounds):
            self._rounds = rounds

        trace(publish)
        self._log = self.logs.pop()
        self._n, self._codes = self._log.n.copy(), self._log.codes.copy()
        self._show()

    def _show(self):
        np.minimum(self._n, self.published, out=self._log.n)
        np.copyto(self._log.codes,
                  np.where(self._n <= self.published, self._codes, 0))

    def check(self):
        pass

    def pump(self):
        if self.published < self._rounds:
            self.published += 1
            self._show()
        else:
            self.done = True
        return self.published

    def close(self):
        pass


trace_in_child = bank_mod._trace_in_child


def tapes_into(lines, problem, store, log, publish):
    LazyTracer.logs.append(log)
    trace_in_child(lines, problem, store, log, publish)


@pytest.mark.parametrize("limit", [1, 2, 7, None])
def test_replay_decides_only_on_published_rounds(small_problem, monkeypatch,
                                                 limit):
    """One round at a time, every replay call equals the kernel: a line
    is final only once a round past its last trial is published, a
    window only once a round past its end is, and an exit as soon as its
    crossing is."""
    monkeypatch.setattr(bank_mod, "Tracer", LazyTracer)
    monkeypatch.setattr(bank_mod, "_trace_in_child", tapes_into)
    p = small_problem
    bank = TrajectoryBank(p, BlockStore(p.field, p.decomposition))
    everywhere = frozenset(range(p.n_blocks))
    for sid in range(4):
        line = Streamline(sid=sid, seed=p.seeds[sid],
                          block_id=int(p.seed_blocks[sid]))
        twin = Streamline(sid=sid, seed=p.seeds[sid],
                          block_id=int(p.seed_blocks[sid]))
        calls = 0
        while line.status is Status.ACTIVE:
            # Every other call only the current block is resident.
            resident = (everywhere if calls % 2
                        else frozenset([line.block_id]))
            got = replay_pool([line], resident, bank, limit)
            want = direct_advance([twin], resident, bank, limit)
            assert result_state(got) == result_state(want)
            assert line_state(line) == line_state(twin)
            calls += 1
        assert calls > 1
