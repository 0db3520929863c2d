"""Tests of shared worker machinery: partitioning, ownership, memory."""

import numpy as np
import pytest

from repro.core.base import Worker, owner_of_block, partition_contiguous
from repro.core.problem import ProblemSpec
from repro.fields import UniformField
from repro.integrate.streamline import Streamline
from repro.mesh.bounds import Bounds
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec
from repro.sim.memory import SimOutOfMemory
from repro.storage.costmodel import DataCostModel
from repro.storage.store import BlockStore


# --------------------------------------------------------------------- #
# partition_contiguous / owner_of_block
# --------------------------------------------------------------------- #
def test_partition_covers_everything_disjointly():
    for n_items in (1, 7, 16, 100):
        for n_parts in (1, 3, 7, 16):
            seen = []
            for part in range(n_parts):
                seen.extend(partition_contiguous(n_items, n_parts, part))
            assert seen == list(range(n_items))


def test_partition_is_balanced():
    sizes = [len(partition_contiguous(100, 7, p)) for p in range(7)]
    assert max(sizes) - min(sizes) <= 1
    # First parts get the remainder.
    assert sizes == sorted(sizes, reverse=True)


def test_partition_range_validation():
    with pytest.raises(ValueError):
        partition_contiguous(10, 4, 4)


def test_owner_matches_partition():
    for n_blocks, n_ranks in ((512, 64), (512, 512), (16, 3), (10, 10)):
        for rank in range(n_ranks):
            for bid in partition_contiguous(n_blocks, n_ranks, rank):
                assert owner_of_block(bid, n_blocks, n_ranks) == rank


def test_owner_more_ranks_than_blocks():
    # 4 blocks over 8 ranks: blocks 0..3 owned by ranks 0..3.
    for bid in range(4):
        assert owner_of_block(bid, 4, 8) == bid


def test_owner_bounds():
    with pytest.raises(ValueError):
        owner_of_block(512, 512, 64)


# --------------------------------------------------------------------- #
# Worker block/memory accounting
# --------------------------------------------------------------------- #
def make_worker(cache_blocks=4, memory=1 << 30):
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    problem = ProblemSpec(
        field=field, seeds=np.array([[0.5, 0.5, 0.5]]),
        blocks_per_axis=(2, 2, 2), cells_per_block=(3, 3, 3),
        cost_model=DataCostModel(modelled_cells_per_block=1000))
    spec = MachineSpec(n_ranks=1, cache_blocks=cache_blocks,
                       memory_bytes=memory)
    cluster = Cluster(spec)
    store = BlockStore(field, problem.decomposition)
    return Worker(cluster.context(0), problem, store), cluster


def drive(cluster, gen):
    """Run one generator to completion inside the simulator."""
    out = {}

    def prog():
        out["value"] = yield from gen

    cluster.engine.spawn("t", prog())
    cluster.run()
    return out["value"]


def test_ensure_block_charges_io_once():
    worker, cluster = make_worker()
    drive(cluster, worker.ensure_block(0))
    io_after_first = cluster.metrics[0].io_time
    assert io_after_first > 0
    assert cluster.metrics[0].blocks_loaded == 1

    cluster2 = Cluster(MachineSpec(n_ranks=1))
    # Re-fetch from cache: no further I/O charged.
    def refetch():
        yield from worker.ensure_block(0)
    worker.ctx.engine.call_later(0, lambda: None)
    block = worker.cache.get(0)
    assert block is not None
    assert worker.ctx.metrics.blocks_loaded == 1


def test_ensure_block_eviction_frees_memory():
    worker, cluster = make_worker(cache_blocks=2)

    def prog():
        for bid in range(4):
            yield from worker.ensure_block(bid)

    cluster.engine.spawn("t", prog())
    cluster.run()
    m = cluster.metrics[0]
    assert m.blocks_loaded == 4
    assert m.blocks_purged == 2
    # Memory holds exactly 2 blocks.
    assert worker.ctx.memory.usage_by_label()["block"] \
        == 2 * worker.cost.block_nbytes


def test_line_memory_lifecycle():
    worker, _ = make_worker()
    line = Streamline(sid=0, seed=np.array([0.5, 0.5, 0.5]))
    worker.own_line(line)
    base = worker.ctx.memory.in_use
    assert base == worker.cost.streamline_memory_nbytes(0)
    line.append_segment(np.zeros((5, 3)))
    worker.grow_line(line)
    assert worker.ctx.memory.in_use \
        == worker.cost.streamline_memory_nbytes(5)
    worker.release_line(line)
    assert worker.ctx.memory.in_use == 0


def test_double_own_rejected():
    worker, _ = make_worker()
    line = Streamline(sid=0, seed=np.array([0.5, 0.5, 0.5]))
    worker.own_line(line)
    with pytest.raises(RuntimeError):
        worker.own_line(line)


def test_release_unowned_rejected():
    worker, _ = make_worker()
    line = Streamline(sid=0, seed=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(RuntimeError):
        worker.release_line(line)
    with pytest.raises(RuntimeError):
        worker.grow_line(line)


def test_own_line_can_oom():
    worker, _ = make_worker(memory=400_000)  # < one streamline overhead
    line = Streamline(sid=0, seed=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(SimOutOfMemory):
        worker.own_line(line)


def test_cache_capacity_derived_from_memory_when_unset():
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    problem = ProblemSpec(
        field=field, seeds=np.array([[0.5, 0.5, 0.5]]),
        blocks_per_axis=(2, 2, 2), cells_per_block=(3, 3, 3),
        cost_model=DataCostModel(modelled_cells_per_block=1_000_000))
    spec = MachineSpec(n_ranks=1, cache_blocks=None,
                       memory_bytes=480_000_000)
    cluster = Cluster(spec)
    worker = Worker(cluster.context(0), problem,
                    BlockStore(field, problem.decomposition))
    # 0.25 * 480 MB / 12 MB = 10 blocks.
    assert worker.cache.capacity == 10
    assert spec.cache_capacity(problem.cost_model.block_nbytes) == 10
