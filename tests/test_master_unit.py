"""Unit tests of HybridMaster pool/rule helpers (no simulation)."""

import numpy as np
import pytest

from repro.core.config import HybridConfig
from repro.core.hybrid_master import HybridMaster, SlaveRecord
from repro.core.problem import ProblemSpec
from repro.fields import UniformField
from repro.mesh.bounds import Bounds
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec


def make_master(pool=None, slaves=(1, 2, 3), config=None):
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    problem = ProblemSpec(
        field=field, seeds=np.array([[0.5, 0.5, 0.5]]),
        blocks_per_axis=(2, 2, 2), cells_per_block=(3, 3, 3))
    cluster = Cluster(MachineSpec(n_ranks=4))
    return HybridMaster(cluster.context(0), problem,
                        config or HybridConfig(), slaves=list(slaves),
                        masters=[0], pool=pool or {})


def test_pool_block_with_most_seeds():
    pool = {3: [(0, np.zeros(3))],
            5: [(1, np.zeros(3)), (2, np.zeros(3))]}
    m = make_master(pool=pool)
    assert m._pool_block_with_most_seeds() == 5
    assert m.pool_size() == 3


def test_pool_empty():
    m = make_master()
    assert m._pool_block_with_most_seeds() is None
    assert m.pool_size() == 0


def test_take_seeds_drains_block():
    pool = {5: [(i, np.full(3, float(i))) for i in range(5)]}
    m = make_master(pool=pool)
    assign = m._take_seeds(5, 3)
    assert assign.block_id == 5
    assert assign.sids == (0, 1, 2)
    assert assign.seeds.shape == (3, 3)
    assert m.pool_size() == 2
    assign2 = m._take_seeds(5, 10)  # takes the remainder
    assert assign2.sids == (3, 4)
    assert 5 not in m.pool


def test_find_loaded_slave_respects_overload():
    m = make_master(config=HybridConfig(overload_limit=10))
    m.records[1].loaded = {7}
    m.records[1].advanceable = 9
    m.records[2].loaded = {7}
    m.records[2].advanceable = 2
    # Incoming 3: slave 1 would exceed N_O (9+3 > 10); slave 2 fits.
    t = m._find_loaded_slave(7, exclude=3, incoming=3)
    assert t is not None and t.rank == 2
    # Incoming 9: nobody fits.
    assert m._find_loaded_slave(7, exclude=3, incoming=9) is None


def test_find_loaded_slave_prefers_least_loaded():
    m = make_master()
    for r, load in ((1, 5), (2, 1), (3, 3)):
        m.records[r].loaded = {4}
        m.records[r].advanceable = load
    t = m._find_loaded_slave(4, exclude=0, incoming=1)
    assert t.rank == 2


def test_cache_capacity_helper():
    m = make_master()
    cap = m.ctx.spec.cache_capacity(m.cost.block_nbytes)
    assert cap == m.ctx.spec.cache_blocks
    assert m._budget == min(m.config.duplication_budget, cap - 1)
