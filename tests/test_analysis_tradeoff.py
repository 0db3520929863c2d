"""Tests of the first-order analytical cost model."""

import numpy as np
import pytest

import repro
from repro.analysis.tradeoff import (
    CostPrediction,
    TransportStats,
    predict_costs,
)
from repro.core.driver import run_streamlines
from repro.fields import SupernovaField
from repro.integrate import IntegratorConfig
from repro.seeding import sparse_random_seeds
from repro.sim.machine import MachineSpec


@pytest.fixture(scope="module")
def problem():
    field = SupernovaField()
    seeds = sparse_random_seeds(
        field.domain.subbox((0.15, 0.15, 0.15), (0.85, 0.85, 0.85)), 48,
        seed=13)
    return repro.ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=100, rtol=1e-4, atol=1e-6))


@pytest.fixture(scope="module")
def stats(problem):
    return TransportStats.measure(problem, sample=24, seed=1)


def test_transport_stats_sane(problem, stats):
    assert stats.n_seeds == problem.n_seeds
    assert stats.mean_steps > 1
    assert 1 <= stats.mean_blocks_visited <= 64
    assert stats.mean_block_crossings >= stats.mean_blocks_visited - 1
    assert 1 <= stats.distinct_blocks_touched <= 64
    assert stats.mean_vertices >= stats.mean_steps


def test_transport_stats_deterministic(problem):
    a = TransportStats.measure(problem, sample=8, seed=2)
    b = TransportStats.measure(problem, sample=8, seed=2)
    assert a == b


def test_transport_stats_validation(problem):
    with pytest.raises(ValueError):
        TransportStats.measure(problem, sample=0)


def test_predictions_reproduce_orderings(problem, stats):
    machine = MachineSpec(n_ranks=8, cache_blocks=8)
    pred = predict_costs(problem, machine, stats=stats)
    # The paper's orderings, analytically:
    assert pred["ondemand"].io_time > pred["static"].io_time
    assert pred["ondemand"].comm_time == 0.0
    assert pred["static"].messages > 0
    # Compute identical across algorithms.
    assert pred["static"].compute_time == pred["hybrid"].compute_time \
        == pred["ondemand"].compute_time


def test_predictions_match_simulation_within_factor(problem, stats):
    """First-order model vs the real simulation: within ~4x on the
    dominant quantities (the model has no queueing or dynamics)."""
    machine = MachineSpec(n_ranks=8, cache_blocks=8)
    pred = predict_costs(problem, machine, stats=stats)
    for algorithm in ("static", "ondemand"):
        sim = run_streamlines(problem, algorithm=algorithm,
                              machine=machine)
        p = pred[algorithm]
        assert sim.blocks_loaded / 4 <= max(p.blocks_read, 1) \
            <= sim.blocks_loaded * 4, (algorithm, p.blocks_read,
                                       sim.blocks_loaded)
        # Compute extrapolates from a sampled subset of curves.
        assert p.compute_time == pytest.approx(
            sim.compute_time, rel=0.3)


def test_derived_cache_capacity_matches_explicit(problem, stats):
    """``cache_blocks=None`` models the cache the simulated ranks derive
    from memory, not a one-block cache."""
    derived = MachineSpec(n_ranks=8, cache_blocks=None,
                          memory_bytes=64 * problem.cost_model.block_nbytes)
    cap = derived.cache_capacity(problem.cost_model.block_nbytes)
    assert cap == 16
    explicit = MachineSpec(n_ranks=8, cache_blocks=cap,
                           memory_bytes=derived.memory_bytes)
    assert predict_costs(problem, derived, stats=stats) \
        == predict_costs(problem, explicit, stats=stats)


def test_prediction_dict_roundtrip(problem, stats):
    pred = predict_costs(problem, MachineSpec(n_ranks=4), stats=stats)
    d = pred["hybrid"].as_dict()
    assert d["algorithm"] == "hybrid"
    assert set(d) == {"algorithm", "blocks_read", "io_time", "messages",
                      "comm_bytes", "comm_time", "compute_time"}
