"""Extra determinism and robustness properties of the whole stack."""

import numpy as np
import pytest

import repro
from repro.core.config import HybridConfig
from repro.core.driver import run_streamlines
from repro.fields import SupernovaField
from repro.integrate import IntegratorConfig
from repro.seeding import sparse_random_seeds
from repro.sim.machine import MachineSpec


def make_problem(field_cls=SupernovaField, n=16, seed=77, **integ_kw):
    field = field_cls()
    seeds = sparse_random_seeds(
        field.domain.subbox((0.2, 0.2, 0.2), (0.8, 0.8, 0.8)), n,
        seed=seed)
    integ = IntegratorConfig(max_steps=80, rtol=1e-5, atol=1e-7,
                             **integ_kw)
    return repro.ProblemSpec(field=field, seeds=seeds,
                             blocks_per_axis=(4, 4, 4),
                             cells_per_block=(5, 5, 5), integ=integ)


def test_trace_is_bit_identical_across_runs():
    from repro.sim.trace import Trace

    problem = make_problem()

    def run_once():
        trace = Trace(enabled=True)
        run_streamlines(problem, algorithm="hybrid",
                        machine=MachineSpec(n_ranks=6), trace=trace)
        return [(r.time, r.rank, r.event, r.detail) for r in trace]

    assert run_once() == run_once()


def test_machine_spec_does_not_change_geometry():
    """Cost-model knobs change metrics, never curves."""
    problem = make_problem()
    fast = run_streamlines(problem, algorithm="static",
                           machine=MachineSpec(n_ranks=6))
    slow = run_streamlines(
        problem, algorithm="static",
        machine=MachineSpec(n_ranks=6, seconds_per_step=1.0,
                            io_bandwidth=1e6, comm_latency=0.5))
    assert slow.wall_clock > fast.wall_clock
    for a, b in zip(fast.streamlines, slow.streamlines):
        assert np.array_equal(a.vertices(), b.vertices())


def test_hybrid_config_changes_schedule_not_curves():
    problem = make_problem()
    a = run_streamlines(problem, algorithm="hybrid",
                        machine=MachineSpec(n_ranks=6),
                        hybrid=HybridConfig(assignment_quantum=2))
    b = run_streamlines(problem, algorithm="hybrid",
                        machine=MachineSpec(n_ranks=6),
                        hybrid=HybridConfig(assignment_quantum=8))
    for la, lb in zip(a.streamlines, b.streamlines):
        assert la.status == lb.status
        assert np.allclose(la.vertices(), lb.vertices(), atol=1e-13)


def test_single_seed_problem():
    problem = make_problem(n=1)
    for algorithm in repro.ALGORITHMS:
        result = run_streamlines(problem, algorithm=algorithm,
                                 machine=MachineSpec(n_ranks=4))
        assert result.ok
        assert len(result.streamlines) == 1


def test_more_ranks_than_seeds():
    problem = make_problem(n=3)
    for algorithm in repro.ALGORITHMS:
        result = run_streamlines(problem, algorithm=algorithm,
                                 machine=MachineSpec(n_ranks=12))
        assert result.ok
        assert len(result.streamlines) == 3


def test_seeds_on_block_faces():
    """Seeds exactly on interior block faces are owned unambiguously."""
    field = SupernovaField()
    # Block faces of a 4^3 decomposition of [-1,1]^3 lie at -0.5, 0, 0.5.
    seeds = np.array([
        [0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [-0.5, 0.25, 0.25],
        [1.0, 1.0, 1.0],     # domain corner
    ])
    problem = repro.ProblemSpec(
        field=field, seeds=seeds, blocks_per_axis=(4, 4, 4),
        cells_per_block=(5, 5, 5),
        integ=IntegratorConfig(max_steps=40, rtol=1e-4, atol=1e-6))
    for algorithm in repro.ALGORITHMS:
        result = run_streamlines(problem, algorithm=algorithm,
                                 machine=MachineSpec(n_ranks=4))
        assert result.ok
        assert len(result.streamlines) == 4
