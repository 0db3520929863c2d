"""The trajectory bank: replay must equal the lockstep kernel per call,
trace lazily and once per run, and die with its run.

Every case here runs on the in-process trace; the ones that depend on how
the seeds are traced run again, unchanged, on the forked tracer in
``test_integrate_bank_forked.py``, which parametrizes the ``trace_path``
fixture."""

import copy
import gc
import hashlib
import itertools
import multiprocessing
import os
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
import repro.core.base as core_base
import repro.core.driver as driver_mod
import repro.integrate.bank as bank_mod
from repro.core.config import HybridConfig
from repro.core.driver import run_streamlines
from repro.core.results import STATUS_OOM
from repro.fields import (RigidRotationField, SupernovaField,
                          ThermalHydraulicsField, TokamakField)
from repro.integrate.bank import TrajectoryBank, replay_pool
from repro.integrate.config import IntegratorConfig
from repro.integrate.pooled import BlockPool, TrialTape, advance_pool
from repro.integrate.streamline import Status, Streamline
from repro.mesh.bounds import Bounds
from repro.obs import Recorder
from repro.obs.export import write_spans_jsonl
from repro.seeding import circle_seeds, dense_cluster_seeds
from repro.sim.machine import MachineSpec
from repro.storage.store import BlockStore


def direct_advance(lines, resident, bank, round_limit=None):
    """What every ``advect_pool`` call did before the bank: the lockstep
    kernel over a fresh pool of exactly the resident blocks."""
    p = bank.problem
    pool = BlockPool([bank.store.load(b) for b in sorted(resident)])
    return advance_pool(lines, pool, p.field.domain, p.decomposition,
                        p.integ, round_limit=round_limit)


def line_state(line):
    return (line.sid, line.status, line.steps, line.block_id, line.h,
            line.time, line.n_vertices, len(line.segments),
            line.position.tobytes(), line.vertices().tobytes())


def result_state(result):
    return (result.attempted_steps, result.accepted_steps,
            [ln.sid for ln in result.exited],
            [ln.sid for ln in result.terminated],
            [ln.sid for ln in result.in_pool])


def run_totals(result):
    ms = result.rank_metrics
    return (repr(result.wall_clock), [line_state(ln)
                                      for ln in result.streamlines],
            [(m.steps, m.msgs_sent, m.bytes_sent, m.blocks_loaded,
              m.blocks_purged, repr(m.compute_time)) for m in ms])


@pytest.fixture(autouse=True)
def trace_path(request, monkeypatch):
    """Force the bank's trace selection: in-process, or forked when
    parametrized with ``True``.  Yields the pids of the tracers the test
    forked, and fails the test if any of them is still a child
    afterwards."""
    forked = getattr(request, "param", False)
    monkeypatch.setattr(bank_mod, "_forks", lambda n_lines, integ: forked)
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    gc.collect()  # a bank left in a cycle reaps its tracer when freed
    assert not [pid for pid in pids if is_child(pid)]


def is_child(pid):
    """Whether ``pid`` is a child of this process not yet reaped."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def count_kernel_calls(monkeypatch):
    """Batch widths of every trace a bank starts, in-process or forked:
    one lockstep ``advance_pool`` call each, in whichever process."""
    calls = []
    trace = TrajectoryBank._trace

    def counted(self, lines, *args, **kwargs):
        calls.append(len(lines))
        return trace(self, lines, *args, **kwargs)

    monkeypatch.setattr(TrajectoryBank, "_trace", counted)
    return calls


def draw_problem(data):
    """A random small problem (also drawn by ``test_obs_lineage.py``):
    one to ten seeds well inside one of two fields, 8 or 27 blocks, a
    short step budget.  Returns ``(rng, field, seeds, problem)``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    field = data.draw(st.sampled_from([
        SupernovaField(),
        RigidRotationField(domain=Bounds.cube(-1.0, 1.0))]))
    size = field.domain.hi_array - field.domain.lo_array
    lo = field.domain.lo_array + 0.15 * size
    hi = field.domain.lo_array + 0.85 * size
    seeds = rng.uniform(lo, hi, size=(data.draw(st.integers(1, 10)), 3))
    return rng, field, seeds, repro.ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(data.draw(st.integers(2, 3)),) * 3,
        cells_per_block=(4, 4, 4),
        integ=IntegratorConfig(max_steps=data.draw(st.integers(5, 50)),
                               h_max=0.05, rtol=1e-4, atol=1e-6))


@pytest.fixture
def tokamak_problem():
    field = TokamakField()
    seeds = dense_cluster_seeds((field.major_radius, 0.0, 0.0), 0.05, 4,
                                seed=3, clip_bounds=field.domain)
    return repro.ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(4, 4, 4), cells_per_block=(5, 5, 5),
        integ=IntegratorConfig(max_steps=40, h_max=0.04,
                               rtol=1e-4, atol=1e-6))


# --------------------------------------------------------------------- #
# Replay == kernel, per advect_pool call
# --------------------------------------------------------------------- #
@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_replay_equals_direct_kernel_at_every_call(monkeypatch, data):
    rng, field, seeds, problem = draw_problem(data)
    algorithm = data.draw(st.sampled_from(["static", "ondemand", "hybrid"]))
    machine = MachineSpec(n_ranks=data.draw(st.integers(2, 5)),
                          cache_blocks=data.draw(st.integers(1, 6)))
    limit = data.draw(st.one_of(st.none(), st.integers(1, 40)))
    # Some calls find some of their lines' tapes gone: those lines are
    # strays, re-traced mid-flight in a batch of their own.
    stray_rate = data.draw(st.sampled_from([0.0, 0.4]))
    calls = []
    batches = count_kernel_calls(monkeypatch)

    def checked(lines, resident, bank, round_limit):
        if bank._tapes and rng.random() < stray_rate:
            for ln in lines:
                if rng.random() < 0.5:
                    del bank._tapes[ln.sid]
        twins = copy.deepcopy(lines)
        got = replay_pool(lines, resident, bank, limit)
        want = direct_advance(twins, resident, bank, limit)
        assert result_state(got) == result_state(want)
        assert [line_state(ln) for ln in lines] \
            == [line_state(ln) for ln in twins]
        calls.append(len(lines))
        return got

    monkeypatch.setattr(core_base, "advance_pool", checked)
    result = run_streamlines(problem, algorithm=algorithm, machine=machine)
    assert result.ok
    assert calls
    assert batches[0] == len(seeds) and (stray_rate or len(batches) == 1)


# --------------------------------------------------------------------- #
# Laziness, unknown lines, one trace per run
# --------------------------------------------------------------------- #
def test_oom_while_seeding_never_integrates(monkeypatch):
    """Static / thermal dense with every owner over budget at t = 0: the
    run dies placing seeds, the bank is never asked, no kernel runs."""
    calls = count_kernel_calls(monkeypatch)
    field = ThermalHydraulicsField()
    cy, cz = field.inlet_centers[0]
    problem = repro.ProblemSpec(
        field=field, seeds=circle_seeds((0.06, cy, cz), 0.02, 600),
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=40, rtol=1e-4, atol=1e-6))
    # ~300 curves x 512 KiB on each of two owners, 64 MiB per rank.
    machine = MachineSpec(n_ranks=8, memory_bytes=64 << 20, cache_blocks=3)
    result = run_streamlines(problem, algorithm="static", machine=machine)
    assert result.status == STATUS_OOM
    assert result.wall_clock == 0.0
    assert calls == []


def test_each_run_traces_once(small_problem, monkeypatch):
    """Every in-domain seed is traced once per run, all in one lockstep
    batch (strays batch separately: see the stray tests below)."""
    calls = count_kernel_calls(monkeypatch)
    in_domain = int((small_problem.seed_blocks >= 0).sum())
    for n_runs in (1, 2):
        assert run_streamlines(small_problem, algorithm="hybrid",
                               machine=MachineSpec(n_ranks=6)).ok
        assert calls == [in_domain] * n_runs


def replay_mid_flight_strays(monkeypatch, first_sid):
    """Make every ``advect_pool`` call of a run first replay, on the
    run's bank, a hand-built twin of each of its lines already in flight,
    each under a fresh sid (>= ``first_sid``) that no tape holds, and
    check every such call against the per-call kernel.  Returns the
    widths of the stray batches."""
    widths, sids = [], itertools.count(first_sid)
    inner = core_base.advance_pool

    def advance(lines, resident, bank, round_limit):
        strays = [Streamline(sid=next(sids), seed=ln.seed,
                             position=ln.position, h=ln.h, time=ln.time,
                             steps=ln.steps, block_id=ln.block_id)
                  for ln in lines if ln.steps]
        if strays:
            twins = copy.deepcopy(strays)
            got = replay_pool(strays, resident, bank, round_limit)
            want = direct_advance(twins, resident, bank, round_limit)
            assert result_state(got) == result_state(want)
            assert [line_state(ln) for ln in strays] \
                == [line_state(ln) for ln in twins]
            widths.append(len(strays))
        return inner(lines, resident, bank, round_limit)

    monkeypatch.setattr(core_base, "advance_pool", advance)
    return widths


def test_mid_flight_strays_match_the_per_call_kernel(tokamak_problem,
                                                     monkeypatch):
    """A line with no tape, here a hand-built twin of a curve in flight,
    is traced in-process from its state on sight, one batch per call,
    and replays as the per-call kernel would; the run around it is what
    per-call kernels produce."""
    def run():
        return run_streamlines(tokamak_problem, algorithm="hybrid",
                               machine=MachineSpec(n_ranks=4))

    calls = count_kernel_calls(monkeypatch)
    widths = replay_mid_flight_strays(monkeypatch, tokamak_problem.n_seeds)
    banked = run()
    assert widths and calls == [tokamak_problem.n_seeds] + widths
    monkeypatch.setattr(core_base, "advance_pool", direct_advance)
    direct = run()
    assert run_totals(banked) == run_totals(direct)


def test_hand_built_line_is_traced_from_its_state(small_problem):
    store = BlockStore(small_problem.field, small_problem.decomposition)
    bank = TrajectoryBank(small_problem, store)
    everywhere = frozenset(range(small_problem.n_blocks))
    # Same sid as a banked seed, different state: not at the cursor.
    start = small_problem.seeds[0] + 0.01
    line = Streamline(sid=0, seed=start, h=0.002, time=1.5, steps=7,
                      block_id=int(small_problem.decomposition.locate(start)))
    twin = copy.deepcopy(line)
    got = replay_pool([line], everywhere, bank, 9)
    want = direct_advance([twin], everywhere, bank, 9)
    assert result_state(got) == result_state(want)
    assert line_state(line) == line_state(twin)
    # ... and it keeps replaying from there, across calls, to the end.
    while line.status is Status.ACTIVE:
        got = replay_pool([line], everywhere, bank, 9)
        want = direct_advance([twin], everywhere, bank, 9)
        assert result_state(got) == result_state(want)
    assert line_state(line) == line_state(twin)


selects_fork = bank_mod._forks  # the real rule; trace_path replaces it


def report_selection(conn, integ):
    conn.send(selects_fork(10_000, integ))
    conn.close()


def test_a_process_pool_worker_never_forks_a_tracer(small_problem):
    """A sweep's local workers already share the CPUs; only a process
    outside a pool may trace on a second one."""
    integ = small_problem.integ
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    worker = ctx.Process(target=report_selection, args=(theirs, integ))
    worker.start()
    theirs.close()
    assert ours.recv() is False
    worker.join()
    assert not selects_fork(1, IntegratorConfig(max_steps=10))


def test_replay_rejects_what_the_kernel_rejects(small_problem):
    store = BlockStore(small_problem.field, small_problem.decomposition)
    bank = TrajectoryBank(small_problem, store)
    line = Streamline(sid=0, seed=small_problem.seeds[0],
                      block_id=int(small_problem.seed_blocks[0]))
    with pytest.raises(ValueError, match="round_limit"):
        replay_pool([line], frozenset([line.block_id]), bank, 0)
    line.terminate(Status.MAX_STEPS)
    with pytest.raises(ValueError, match="not active"):
        replay_pool([line], frozenset([line.block_id]), bank, 5)


def test_segments_are_views_into_the_tape(small_problem):
    result = run_streamlines(small_problem, algorithm="ondemand",
                             machine=MachineSpec(n_ranks=3))
    line = max(result.streamlines, key=lambda ln: len(ln.segments))
    assert len(line.segments) > 1
    assert all(np.shares_memory(seg, line.segments[0].base)
               for seg in line.segments)


def test_kernel_segments_are_rows_of_one_buffer(small_problem):
    """One advance call writes every line's vertices into its own row of
    a single ``(k, cap, 3)`` buffer; nothing is sorted or copied after."""
    p = small_problem
    store = BlockStore(p.field, p.decomposition)
    lines = [Streamline(sid=i, seed=p.seeds[i],
                        block_id=int(p.seed_blocks[i])) for i in range(6)]
    pool = BlockPool([store.load(ln.block_id) for ln in lines],
                     loader=store.load)
    advance_pool(lines, pool, p.field.domain, p.decomposition, p.integ,
                 round_limit=20)
    buffer = lines[0].segments[0].base
    assert buffer.shape == (6, 21, 3)
    for i, ln in enumerate(lines):
        (seg,) = ln.segments
        assert seg.base is buffer and len(seg) == ln.steps + 1
        assert np.shares_memory(seg, buffer[i])
        assert np.array_equal(seg[0], p.seeds[i])
        assert np.array_equal(seg[-1], ln.position)


def test_tape_rows_grow_when_the_controller_rejects_often(small_problem):
    """About two trials in three rejected: every curve takes two to three
    times ``max_steps`` trials, in the array rounds and in the scalar
    tail alike, and the tape (sized for the kernel's round guard) holds
    them; replay still equals the kernel call by call."""
    integ = IntegratorConfig(max_steps=60, rtol=1e-6, atol=1e-8, safety=0.97)
    problem = repro.ProblemSpec(
        field=small_problem.field, seeds=small_problem.seeds[:6],
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6), integ=integ)
    bank = TrajectoryBank(problem, BlockStore(problem.field,
                                              problem.decomposition))
    everywhere = frozenset(range(problem.n_blocks))
    lines = [Streamline(sid=i, seed=problem.seeds[i],
                        block_id=int(problem.seed_blocks[i]))
             for i in range(6)]
    twins = copy.deepcopy(lines)
    tapes = bank.tapes_for(lines)
    while lines:
        got = replay_pool(lines, everywhere, bank, 25)
        want = direct_advance(twins, everywhere, bank, 25)
        assert result_state(got) == result_state(want)
        assert [line_state(ln) for ln in lines] \
            == [line_state(ln) for ln in twins]
        lines, twins = got.in_pool, want.in_pool
    # Every curve is final now, on either trace path.
    assert all(tape.n > 2.05 * integ.max_steps for tape in tapes)
    assert all(len(tape.h) >= tape.n for tape in tapes)


def test_full_width_trace_allocates_little_beyond_what_it_keeps():
    """880 thermal circle seeds in one batch: no round-major lists to
    concatenate, sort and copy, so the peak stays near the live size."""
    field = ThermalHydraulicsField()
    cy, cz = field.inlet_centers[0]
    problem = repro.ProblemSpec(
        field=field, seeds=circle_seeds((0.06, cy, cz), 0.03, 880),
        blocks_per_axis=(8, 8, 8), cells_per_block=(8, 8, 8),
        integ=IntegratorConfig(max_steps=180, h_max=0.02,
                               rtol=1e-5, atol=1e-7))
    bank = TrajectoryBank(problem, BlockStore(field, problem.decomposition))
    tracemalloc.start()
    try:
        bank.tapes_for([])
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bank._tapes) == 880
    assert peak <= 1.25 * live


# --------------------------------------------------------------------- #
# Growing pool and taping
# --------------------------------------------------------------------- #
def test_growing_pool_stacks_blocks_on_crossing(small_problem):
    store = BlockStore(small_problem.field, small_problem.decomposition)
    first = store.load(0)
    pool = BlockPool([first], loader=store.load)
    assert pool.slot_for(0) == 0 and len(pool) == 1
    for bid in (5, 9, 2):
        slot = pool.slot_for(bid)
        assert pool.blocks[slot] is store.load(bid)
        assert pool.block_ids[slot] == bid
    assert len(pool) == 4 and pool.slot_for(5) == 1
    fixed = BlockPool([first, store.load(5)])
    assert fixed.slot_for(9) == -1
    # A slot's rows survive growth untouched.
    n = first._flat.shape[0]
    assert np.array_equal(pool.flat[:n], first._flat)
    assert np.array_equal(pool.flat[n:2 * n], store.load(5)._flat)


def test_slots_for_numbers_slots_like_slot_for(small_problem):
    """The batched lookup stacks missing blocks in first-appearance
    order, so every slot number is what one slot_for per id gives."""
    store = BlockStore(small_problem.field, small_problem.decomposition)
    ids = np.array([5, 9, 5, 2, 0, 9, 63, 2], dtype=np.int64)
    one = BlockPool([store.load(0)], loader=store.load)
    want = [one.slot_for(int(b)) for b in ids]
    many = BlockPool([store.load(0)], loader=store.load,
                     n_blocks=small_problem.n_blocks)
    assert many.slots_for(ids).tolist() == want
    assert many.block_ids[:len(many)].tolist() == \
        one.block_ids[:len(one)].tolist()
    # A fixed pool answers -1 for what it does not hold, at any id.
    fixed = BlockPool([store.load(0), store.load(5)])
    assert fixed.slots_for(ids).tolist() == [1, -1, 1, -1, 0, -1, -1, -1]
    assert fixed.slot_for(63) == -1 and len(fixed) == 2


def test_growing_pool_never_reserves_past_the_store(small_problem):
    store = BlockStore(small_problem.field, small_problem.decomposition)
    n_blocks, n = small_problem.n_blocks, store.load(0)._flat.shape[0]
    pool = BlockPool([store.load(b) for b in range(5)], loader=store.load,
                     n_blocks=n_blocks)
    reserved = {len(pool.block_ids)}
    for bid in range(n_blocks - 1, 4, -1):
        slot = pool.slot_for(bid)
        reserved.add(len(pool.block_ids))
        for s, b in ((0, 0), (4, 4), (slot, bid)):
            assert pool.block_ids[s] == b
            assert np.array_equal(pool.flat[s * n:(s + 1) * n],
                                  store.load(b)._flat)
    assert len(pool) == n_blocks == max(reserved) and len(reserved) > 2


def test_taping_needs_a_growing_pool(small_problem):
    store = BlockStore(small_problem.field, small_problem.decomposition)
    p = small_problem
    line = Streamline(sid=0, seed=p.seeds[0],
                      block_id=int(p.seed_blocks[0]))
    pool = BlockPool([store.load(line.block_id)])
    with pytest.raises(ValueError, match="growing"):
        advance_pool([line], pool, p.field.domain, p.decomposition,
                     p.integ, tape=TrialTape(1, p.integ))


# --------------------------------------------------------------------- #
# Lifetime
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("outcome", ["ok", "oom"])
def test_bank_dies_with_its_run_without_the_cyclic_gc(small_problem,
                                                      monkeypatch, outcome):
    banks = []

    class Spy(TrajectoryBank):
        def __init__(self, *args):
            super().__init__(*args)
            banks.append(weakref.ref(self))

    monkeypatch.setattr(driver_mod, "TrajectoryBank", Spy)
    # 20 MiB holds the seeds and one block, not two: the simulated OOM
    # strikes at the second load, after the bank has traced.
    memory = (1 << 30) if outcome == "ok" else (20 << 20)
    calls = count_kernel_calls(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        result = run_streamlines(
            small_problem, algorithm="ondemand",
            machine=MachineSpec(n_ranks=2, memory_bytes=memory,
                                cache_blocks=2))
        assert result.status == outcome
        assert len(calls) == 1
        assert [ref() for ref in banks] == [None]
    finally:
        gc.enable()


# --------------------------------------------------------------------- #
# One bank, many runs: the problem-scoped half is shared, nothing else
# --------------------------------------------------------------------- #
def run_fingerprint(result, obs):
    """Everything a run hands back: status, geometry sha256, per-rank
    metrics, wall clock, traffic, and the recorder's span stream as the
    bytes ``spans.jsonl`` would hold."""
    geometry = hashlib.sha256()
    for ln in result.streamlines:
        geometry.update(f"{ln.sid}:{ln.status.value}:{ln.steps}:".encode())
        geometry.update(ln.vertices().tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        write_spans_jsonl(Path(tmp) / "spans.jsonl", obs)
        spans = (Path(tmp) / "spans.jsonl").read_bytes()
    return (result.status, geometry.hexdigest(),
            [repr(m) for m in result.rank_metrics], repr(result.wall_clock),
            result.messages_sent, result.bytes_sent, spans)


def assert_read_only(result):
    for ln in result.streamlines:
        for array in [*ln.segments, ln.position]:
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0.0


def assert_every_seed_terminated_once(result, n_seeds):
    assert [ln.sid for ln in result.streamlines] == list(range(n_seeds))
    assert all(ln.status is not Status.ACTIVE for ln in result.streamlines)


def assert_time_reconciles(result, obs):
    """Per rank: busy + attributed waits + drain tail == wall (1e-9), the
    check ``test_obs_waitstate.py`` makes."""
    wall = result.wall_clock
    for m in result.rank_metrics:
        drain = max(0.0, wall - m.finish_time)
        assert m.busy_time + obs.waits.total(m.rank) + drain \
            == pytest.approx(wall, abs=1e-9), f"rank {m.rank}"


@given(data=st.data())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_runs_sharing_a_bank_equal_runs_on_their_own(data):
    """Two to five runs of one random problem — algorithm, ranks, cache
    size and hybrid tunables all varying, one of them dying of simulated
    OOM — on one shared bank: each equals the same run handed no bank,
    and leaves nothing of itself for the next.  A run that ends ``ok``
    terminates every seed id once, and its ranks' time reconciles."""
    rng, field, seeds, problem = draw_problem(data)
    store = BlockStore(field, problem.decomposition)
    shared = TrajectoryBank(problem, store)
    n_runs = data.draw(st.integers(2, 5))
    dies = data.draw(st.integers(0, n_runs - 1))
    cost = problem.cost_model
    for i in range(n_runs):
        algorithm = data.draw(st.sampled_from(
            ["static", "ondemand", "hybrid"]))
        # The dying run can buffer its seeds, and then either no block at
        # all (it must die) or one block but not two (it may).
        fits = data.draw(st.sampled_from([0, 1])) if i == dies else 100
        memory = (len(seeds) * cost.streamline_memory_nbytes(60)
                  + (2 * fits + 1) * cost.block_nbytes // 2)
        kwargs = dict(
            algorithm=algorithm, store=store,
            machine=MachineSpec(n_ranks=data.draw(st.integers(2, 5)),
                                cache_blocks=data.draw(st.integers(1, 6)),
                                memory_bytes=memory),
            hybrid=HybridConfig(
                assignment_quantum=data.draw(st.integers(1, 10)),
                load_threshold=data.draw(st.integers(1, 40)),
                slaves_per_master=data.draw(st.integers(1, 4)),
                locality_bias=data.draw(st.booleans()),
                seed=data.draw(st.integers(0, 3))))
        obs_shared, obs_own = Recorder(enabled=True), Recorder(enabled=True)
        on_shared = run_streamlines(problem, obs=obs_shared, bank=shared,
                                    **kwargs)
        on_own = run_streamlines(problem, obs=obs_own, **kwargs)
        assert run_fingerprint(on_shared, obs_shared) \
            == run_fingerprint(on_own, obs_own)
        assert fits or on_shared.status == STATUS_OOM
        assert_read_only(on_shared)
        assert_read_only(on_own)
        if on_shared.ok:
            for result, obs in ((on_shared, obs_shared), (on_own, obs_own)):
                assert_every_seed_terminated_once(result, len(seeds))
                assert_time_reconciles(result, obs)
        # The run's cursors and strays are gone; the seeds' tapes stayed
        # where the trace left them.
        assert shared._tapes is None
        if shared._seeds is not None:
            assert sorted(shared._seeds) == list(range(len(seeds)))
            assert all(tape.cursor == tape.a == tape.ci == 0
                       for tape in shared._seeds.values())


def test_oom_mid_replay_leaves_a_shared_bank_clean(small_problem,
                                                   monkeypatch):
    """A run that dies of simulated OOM after replaying part of its
    curves leaves cursors mid-tape; the next run on the same bank starts
    from rewound ones and traces nothing."""
    store = BlockStore(small_problem.field, small_problem.decomposition)
    shared = TrajectoryBank(small_problem, store)
    calls = count_kernel_calls(monkeypatch)
    seen = []
    inner = core_base.advance_pool

    def spying(lines, resident, bank, round_limit):
        out = inner(lines, resident, bank, round_limit)
        seen.append(max(tape.cursor for tape in bank._tapes.values()))
        return out

    monkeypatch.setattr(core_base, "advance_pool", spying)
    # 20 MiB holds the seeds and one block, not two.
    dead = run_streamlines(
        small_problem, algorithm="ondemand", store=store, bank=shared,
        machine=MachineSpec(n_ranks=2, memory_bytes=20 << 20,
                            cache_blocks=2))
    assert dead.status == STATUS_OOM and seen and seen[-1] > 0
    monkeypatch.setattr(core_base, "advance_pool", inner)
    kwargs = dict(algorithm="hybrid", store=store,
                  machine=MachineSpec(n_ranks=6))
    after = run_streamlines(small_problem, bank=shared, **kwargs)
    assert len(calls) == 1
    alone = run_streamlines(small_problem, **kwargs)
    assert len(calls) == 2
    assert run_totals(after) == run_totals(alone)


def test_strays_of_one_run_are_invisible_to_the_next(tokamak_problem,
                                                     monkeypatch):
    """Hand-built strays met mid-run (sids >= n_seeds) and a hand-built
    line wearing a seed's sid are traced for the run that met them and
    dropped with it."""
    store = BlockStore(tokamak_problem.field, tokamak_problem.decomposition)
    shared = TrajectoryBank(tokamak_problem, store)
    calls = count_kernel_calls(monkeypatch)
    kwargs = dict(algorithm="hybrid", store=store, bank=shared,
                  machine=MachineSpec(n_ranks=4))
    inner = core_base.advance_pool
    widths = replay_mid_flight_strays(monkeypatch, tokamak_problem.n_seeds)
    with_strays = run_streamlines(tokamak_problem, **kwargs)
    assert widths and calls == [4] + widths
    assert shared._tapes is None and sorted(shared._seeds) == [0, 1, 2, 3]
    monkeypatch.setattr(core_base, "advance_pool", inner)
    # A hand-built line under sid 0, replayed outside any run ...
    start = tokamak_problem.seeds[0] + 0.01
    line = Streamline(
        sid=0, seed=start, h=0.002, time=1.5, steps=7,
        block_id=int(tokamak_problem.decomposition.locate(start)))
    del calls[:]
    replay_pool([line], frozenset(range(tokamak_problem.n_blocks)),
                shared, 9)
    assert calls == [1]
    shared.end_run()
    # ... and the next run replays the four seeds, tracing nothing.
    del calls[:]
    plain = run_streamlines(tokamak_problem, **kwargs)
    assert calls == [] and [ln.sid for ln in plain.streamlines] \
        == [0, 1, 2, 3]
    assert run_totals(plain) == run_totals(with_strays)
    assert line_state(plain.streamlines[0]) == line_state(
        run_streamlines(tokamak_problem, algorithm="ondemand",
                        machine=MachineSpec(n_ranks=1)).streamlines[0])


def test_bank_of_another_problem_or_store_is_rejected(small_problem,
                                                      tokamak_problem):
    store = BlockStore(small_problem.field, small_problem.decomposition)
    with pytest.raises(ValueError, match="another problem or store"):
        run_streamlines(small_problem, store=store,
                        bank=TrajectoryBank(tokamak_problem, store))
    with pytest.raises(ValueError, match="another problem or store"):
        run_streamlines(small_problem,  # the default store is another one
                        bank=TrajectoryBank(small_problem, store))
    twin = copy.copy(small_problem)  # equal is not enough: identity
    with pytest.raises(ValueError, match="another problem or store"):
        run_streamlines(twin, store=store,
                        bank=TrajectoryBank(small_problem, store))
