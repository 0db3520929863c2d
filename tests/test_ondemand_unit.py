"""Unit tests of OnDemandWorker internals."""

import numpy as np
import pytest

from repro.core.ondemand import (OnDemandWorker, seed_chunks,
                                 seeds_grouped_by_block)
from repro.core.problem import ProblemSpec
from repro.fields import UniformField
from repro.mesh.bounds import Bounds
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec
from repro.storage.costmodel import DataCostModel
from repro.storage.store import BlockStore


def make_worker(n_ranks=2, rank=0, seeds=None):
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    if seeds is None:
        seeds = np.array([
            [0.1, 0.1, 0.1],   # block 0
            [0.6, 0.1, 0.1],   # block 1
            [0.1, 0.6, 0.1],   # block 2
            [0.6, 0.6, 0.6],   # block 7
        ])
    problem = ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(2, 2, 2), cells_per_block=(3, 3, 3),
        cost_model=DataCostModel(modelled_cells_per_block=1000))
    cluster = Cluster(MachineSpec(n_ranks=n_ranks, cache_blocks=2))
    store = BlockStore(field, problem.decomposition)
    sids = seed_chunks(problem, n_ranks)[rank]
    return cluster, problem, OnDemandWorker(cluster.context(rank),
                                            problem, store, sids=sids)


def test_seed_setup_takes_contiguous_grouped_chunk():
    cluster, problem, w0 = make_worker(n_ranks=2, rank=0)
    _, _, w1 = make_worker(n_ranks=2, rank=1)
    w0._setup_seeds()
    w1._setup_seeds()
    n0 = sum(len(v) for v in w0.waiting.values())
    n1 = sum(len(v) for v in w1.waiting.values())
    assert n0 + n1 == problem.n_seeds
    assert abs(n0 - n1) <= 1
    # Grouped: each worker's seeds are contiguous in block order.
    order = seeds_grouped_by_block(problem)
    assert list(order) == sorted(order,
                                 key=lambda i: problem.seed_blocks[i])


def test_next_block_to_load_prefers_most_demanded():
    cluster, problem, w = make_worker(n_ranks=1)
    w._setup_seeds()
    # All four seeds wait; each block has one => lowest id wins ties.
    assert w._next_block_to_load() == 0
    # Stack two more lines into block 7.
    from repro.integrate.streamline import Streamline
    for sid in (10, 11):
        line = Streamline(sid=sid, seed=np.array([0.6, 0.6, 0.6]),
                          block_id=7)
        w.own_line(line)
        w.waiting.setdefault(7, []).append(line)
    assert w._next_block_to_load() == 7


def test_full_run_completes_all(capsys):
    cluster, problem, w = make_worker(n_ranks=1)
    cluster.engine.spawn("w", w.run())
    cluster.run()
    assert len(w.done_lines) == problem.n_seeds
    assert not w.waiting and not w.ready
    # With cache_blocks=2 and 4+ blocks needed, purges happened.
    m = cluster.metrics[0]
    assert m.blocks_loaded > 0
    assert m.blocks_loaded - m.blocks_purged <= 2
