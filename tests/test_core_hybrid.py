"""Tests of the Hybrid Master/Slave algorithm."""

import numpy as np
import pytest

import repro
from repro.core.config import HybridConfig
from repro.core.driver import run_streamlines
from repro.core.hybrid_master import SlaveRecord
from repro.fields import SupernovaField
from repro.integrate import IntegratorConfig
from repro.seeding import dense_cluster_seeds, sparse_random_seeds
from repro.sim.machine import MachineSpec
from repro.sim.trace import Trace


@pytest.fixture(scope="module")
def problem():
    field = SupernovaField()
    seeds = sparse_random_seeds(
        field.domain.subbox((0.2, 0.2, 0.2), (0.8, 0.8, 0.8)), 40,
        seed=11)
    return repro.ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=100, rtol=1e-5, atol=1e-7))


# --------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------- #
def test_hybrid_config_defaults_match_paper():
    cfg = HybridConfig()
    assert cfg.assignment_quantum == 10     # N = 10
    assert cfg.overload_limit == 200        # N_O = 20 x N
    assert cfg.load_threshold == 40         # N_L = 40
    assert cfg.slaves_per_master == 32      # W = 32


def test_hybrid_config_validation():
    with pytest.raises(ValueError):
        HybridConfig(assignment_quantum=0)
    with pytest.raises(ValueError):
        HybridConfig(overload_limit=5, assignment_quantum=10)
    with pytest.raises(ValueError):
        HybridConfig(load_threshold=0)
    with pytest.raises(ValueError):
        HybridConfig(slaves_per_master=0)
    with pytest.raises(ValueError, match="seed"):
        HybridConfig(seed=-1)


def test_n_masters_scaling():
    cfg = HybridConfig()  # W = 32
    assert cfg.n_masters(2) == 1
    assert cfg.n_masters(33) == 1
    assert cfg.n_masters(66) == 2
    assert cfg.n_masters(264) == 8
    with pytest.raises(ValueError):
        cfg.n_masters(1)


def test_n_masters_leaves_a_slave():
    cfg = HybridConfig(slaves_per_master=1)
    assert cfg.n_masters(2) == 1  # cannot be 2 masters 0 slaves


# --------------------------------------------------------------------- #
# SlaveRecord
# --------------------------------------------------------------------- #
def test_slave_record_waiting_blocks_ordering():
    r = SlaveRecord(rank=1, lines_by_block={3: 5, 7: 5, 2: 9, 4: 0},
                    loaded={7})
    # Block 7 is loaded (excluded); 2 has most; tie between none.
    assert r.waiting_blocks() == [(9, 2), (5, 3)]
    assert r.total_lines == 19


# --------------------------------------------------------------------- #
# End-to-end behaviour
# --------------------------------------------------------------------- #
def test_multiple_masters(problem):
    cfg = HybridConfig(slaves_per_master=3, seed=1)
    machine = MachineSpec(n_ranks=12)
    assert cfg.n_masters(12) == 3
    result = run_streamlines(problem, algorithm="hybrid",
                             machine=machine, hybrid=cfg)
    assert result.ok
    assert len(result.streamlines) == problem.n_seeds
    # Masters (ranks 0-2) never advect.
    for rank in range(3):
        assert result.rank_metrics[rank].steps == 0


def test_masters_do_no_io(problem):
    result = run_streamlines(problem, algorithm="hybrid",
                             machine=MachineSpec(n_ranks=8))
    # One master at 8 ranks: rank 0.
    assert result.rank_metrics[0].io_time == 0.0
    assert result.rank_metrics[0].blocks_loaded == 0


def test_work_spreads_across_slaves(problem):
    """Unlike Static with dense seeds, the hybrid algorithm spreads a
    dense cluster's compute over many slaves."""
    dense = problem.with_seeds(dense_cluster_seeds(
        (0.4, 0.4, 0.4), 0.02, 60, seed=2,
        clip_bounds=problem.field.domain))
    cfg = HybridConfig(assignment_quantum=5, overload_limit=15)
    result = run_streamlines(dense, algorithm="hybrid",
                             machine=MachineSpec(n_ranks=8), hybrid=cfg)
    assert result.ok
    busy_slaves = sum(1 for m in result.rank_metrics[1:] if m.steps > 0)
    assert busy_slaves >= 4

    static = run_streamlines(dense, algorithm="static",
                             machine=MachineSpec(n_ranks=8))
    hybrid_max = max(m.steps for m in result.rank_metrics)
    static_max = max(m.steps for m in static.rank_metrics)
    assert hybrid_max < static_max  # better balance


def test_overload_limit_bounds_assignment(problem):
    """No slave's resident streamline count may exceed N_O by more than
    one in-flight assignment quantum."""
    cfg = HybridConfig(assignment_quantum=4, overload_limit=8, seed=3)
    trace = Trace(enabled=True)
    result = run_streamlines(problem, algorithm="hybrid",
                             machine=MachineSpec(n_ranks=6),
                             hybrid=cfg, trace=trace)
    assert result.ok
    # The master never Send_forces onto a slave beyond the limit: verify
    # via assignments in the trace (each assign is <= N seeds).
    for record in trace.select(event="assign"):
        assert record.get("n") <= cfg.assignment_quantum


def test_hint_rule_deterministic_seed(problem):
    a = run_streamlines(problem, algorithm="hybrid",
                        machine=MachineSpec(n_ranks=8),
                        hybrid=HybridConfig(seed=5))
    b = run_streamlines(problem, algorithm="hybrid",
                        machine=MachineSpec(n_ranks=8),
                        hybrid=HybridConfig(seed=5))
    assert a.wall_clock == b.wall_clock
    assert a.messages_sent == b.messages_sent


def test_trace_contains_rule_events(problem):
    trace = Trace(enabled=True)
    run_streamlines(problem, algorithm="hybrid",
                    machine=MachineSpec(n_ranks=6), trace=trace)
    counts = trace.counts()
    assert counts.get("assign", 0) > 0      # Assign rules fired
    # Load / send_force / send_hint fire depending on dynamics; at least
    # one of the rebalancing rules must have fired for wandering curves.
    assert counts.get("load_rule", 0) + counts.get("send_force", 0) \
        + counts.get("send_hint", 0) > 0
