"""Cross-algorithm integration tests: equivalence, determinism, OOM."""

import numpy as np
import pytest

import repro
from repro.core.driver import run_streamlines
from repro.core.results import STATUS_OK, STATUS_OOM
from repro.fields import ThermalHydraulicsField
from repro.integrate import IntegratorConfig, integrate_single
from repro.seeding import circle_seeds
from repro.sim.machine import MachineSpec
from repro.sim.trace import Trace
from repro.storage.costmodel import DataCostModel

ALGOS = ("static", "ondemand", "hybrid")


@pytest.fixture(scope="module")
def reference(small_problem_module):
    problem = small_problem_module
    return integrate_single(problem.field, problem.decomposition,
                            problem.seeds, problem.integ)


def assert_identical(ref, line):
    """Same outcome and the same curve, bit for bit."""
    assert ref.status == line.status
    assert ref.steps == line.steps
    assert (ref.h, ref.time) == (line.h, line.time)
    assert np.array_equal(ref.position, line.position)
    assert np.array_equal(ref.vertices(), line.vertices())


@pytest.fixture(scope="module")
def small_problem_module():
    # Module-scoped twin of the conftest fixture (for the reference run).
    from repro.fields import SupernovaField
    from repro.seeding import sparse_random_seeds
    field = SupernovaField()
    seeds = sparse_random_seeds(
        field.domain.subbox((0.15, 0.15, 0.15), (0.85, 0.85, 0.85)),
        24, seed=42)
    return repro.ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=120, rtol=1e-5, atol=1e-7))


@pytest.mark.parametrize("algorithm", ALGOS)
def test_all_streamlines_accounted_for(small_problem_module, algorithm):
    result = run_streamlines(small_problem_module, algorithm=algorithm,
                             machine=MachineSpec(n_ranks=8))
    assert result.ok
    assert len(result.streamlines) == small_problem_module.n_seeds
    assert [l.sid for l in result.streamlines] \
        == list(range(small_problem_module.n_seeds))
    assert all(l.status.terminated for l in result.streamlines)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_geometry_identical_to_serial_reference(
        small_problem_module, reference, algorithm):
    """Parallelization must not change the numerics — every algorithm
    produces bit-identical curves to the serial reference."""
    result = run_streamlines(small_problem_module, algorithm=algorithm,
                             machine=MachineSpec(n_ranks=8))
    assert len(result.streamlines) == len(reference)
    for ref, line in zip(reference, result.streamlines):
        assert_identical(ref, line)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_deterministic_across_runs(small_problem_module, algorithm):
    a = run_streamlines(small_problem_module, algorithm=algorithm,
                        machine=MachineSpec(n_ranks=8))
    b = run_streamlines(small_problem_module, algorithm=algorithm,
                        machine=MachineSpec(n_ranks=8))
    assert a.wall_clock == b.wall_clock
    assert a.io_time == b.io_time
    assert a.comm_time == b.comm_time
    assert a.messages_sent == b.messages_sent
    assert a.blocks_loaded == b.blocks_loaded


@pytest.mark.parametrize("algorithm", ALGOS)
def test_rank_count_does_not_change_results(small_problem_module,
                                            reference, algorithm):
    for n_ranks in (4, 12):
        result = run_streamlines(small_problem_module, algorithm=algorithm,
                                 machine=MachineSpec(n_ranks=n_ranks))
        assert len(result.streamlines) == len(reference)
        for ref, line in zip(reference, result.streamlines):
            assert_identical(ref, line)


def test_unknown_algorithm_rejected(small_problem_module):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_streamlines(small_problem_module, algorithm="magic")


def test_out_of_domain_seeds_terminate_immediately(small_problem_module):
    problem = small_problem_module.with_seeds(np.array([
        [0.5, 0.5, 0.5],
        [5.0, 5.0, 5.0],   # outside
        [-2.0, 0.0, 0.0],  # outside
    ]))
    for algorithm in ALGOS:
        result = run_streamlines(problem, algorithm=algorithm,
                                 machine=MachineSpec(n_ranks=4))
        assert result.ok
        assert result.streamlines[1].status.value == "out_of_bounds"
        assert result.streamlines[2].status.value == "out_of_bounds"
        assert len(result.streamlines[1].vertices()) == 1


def test_static_ooms_on_dense_thermal_seeds():
    """Paper §5.3: Static Allocation runs out of memory when every seed
    lands on one owner; the other two algorithms complete."""
    field = ThermalHydraulicsField()
    cy, cz = field.inlet_centers[0]
    problem = repro.ProblemSpec(
        field=field,
        seeds=circle_seeds((0.06, cy, cz), 0.02, 600),
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=40, rtol=1e-4, atol=1e-6))
    # 600 curves x 512 KiB = 300 MiB, over a 192 MiB budget: the one
    # rank owning the inlet blocks cannot hold them all.
    machine = MachineSpec(n_ranks=8, memory_bytes=192 << 20,
                          cache_blocks=3)
    static = run_streamlines(problem, algorithm="static", machine=machine)
    assert static.status == STATUS_OOM
    assert static.oom_rank is not None
    assert "streamline" in static.oom_reason

    # Load On Demand splits curves evenly; the hybrid algorithm caps any
    # slave's load at N_O (kept below what 192 MiB can hold).
    from repro.core.config import HybridConfig
    for algorithm, hybrid in (("ondemand", None),
                              ("hybrid", HybridConfig(overload_limit=40))):
        result = run_streamlines(problem, algorithm=algorithm,
                                 machine=machine, hybrid=hybrid)
        assert result.ok, f"{algorithm} should survive dense seeding"


def test_wall_clock_positive_and_metrics_consistent(small_problem_module):
    result = run_streamlines(small_problem_module, algorithm="hybrid",
                             machine=MachineSpec(n_ranks=6))
    assert result.wall_clock > 0
    assert result.compute_time > 0
    assert result.blocks_loaded >= 1
    assert 0.0 <= result.block_efficiency <= 1.0
    assert result.total_steps > 0
    assert 0.0 < result.parallel_efficiency <= 1.0
    summary = result.summary()
    assert summary["status"] == STATUS_OK
    assert summary["streamlines"] == small_problem_module.n_seeds


def test_trace_records_events(small_problem_module):
    trace = Trace(enabled=True)
    run_streamlines(small_problem_module, algorithm="static",
                    machine=MachineSpec(n_ranks=4), trace=trace)
    counts = trace.counts()
    assert counts.get("block_load", 0) > 0
    assert counts.get("advect_pool", 0) > 0


def test_single_rank_static_and_ondemand(small_problem_module):
    """n_ranks=1 degenerates to serial out-of-core computation."""
    for algorithm in ("static", "ondemand"):
        result = run_streamlines(small_problem_module, algorithm=algorithm,
                                 machine=MachineSpec(n_ranks=1))
        assert result.ok
        assert result.comm_time == 0.0
        assert result.messages_sent == 0


def test_hybrid_requires_two_ranks(small_problem_module):
    with pytest.raises(ValueError):
        run_streamlines(small_problem_module, algorithm="hybrid",
                        machine=MachineSpec(n_ranks=1))
