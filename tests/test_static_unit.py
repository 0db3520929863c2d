"""Unit tests of StaticWorker internals (setup, routing, counting)."""

import numpy as np
import pytest

from repro.core import messages as msg
from repro.core.base import owner_of_block
from repro.core.problem import ProblemSpec
from repro.core.static import StaticWorker, seed_claims
from repro.fields import UniformField
from repro.integrate.streamline import Status, Streamline
from repro.mesh.bounds import Bounds
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec
from repro.storage.costmodel import DataCostModel
from repro.storage.store import BlockStore


def make_setup(n_ranks=4, seeds=None):
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    if seeds is None:
        seeds = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])
    problem = ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(2, 2, 2), cells_per_block=(3, 3, 3),
        cost_model=DataCostModel(modelled_cells_per_block=1000))
    cluster = Cluster(MachineSpec(n_ranks=n_ranks))
    store = BlockStore(field, problem.decomposition)
    claims = seed_claims(problem, n_ranks)
    workers = [StaticWorker(cluster.context(r), problem, store,
                            sids=claims[r])
               for r in range(n_ranks)]
    return cluster, problem, workers


def test_setup_assigns_seeds_to_owners():
    cluster, problem, workers = make_setup()
    for w in workers:
        w._setup_seeds()
    owned = {w.ctx.rank: sum(len(v) for v in w.queue.values())
             for w in workers}
    assert sum(owned.values()) == problem.n_seeds
    # Each queued line's block is owned by that worker.
    for w in workers:
        for bid in w.queue:
            assert owner_of_block(bid, problem.n_blocks, 4) == w.ctx.rank


def test_out_of_domain_seed_handled_by_rank0():
    seeds = np.array([[0.5, 0.5, 0.5], [7.0, 7.0, 7.0]])
    cluster, problem, workers = make_setup(seeds=seeds)
    for w in workers:
        w._setup_seeds()
    assert len(workers[0].done_lines) == 1
    assert workers[0].done_lines[0].status is Status.OUT_OF_BOUNDS
    assert workers[0]._pending_term_delta == 1
    for w in workers[1:]:
        assert not w.done_lines


def test_process_streamline_packet_takes_ownership():
    cluster, problem, workers = make_setup()
    w = workers[1]
    line = Streamline(sid=9, seed=np.array([0.6, 0.1, 0.1]), block_id=1)

    class FakeMsg:
        payload = msg.StreamlinePacket([line])

    w._process([FakeMsg()])
    assert w.owns_line(9)
    assert line in w.queue[1]


def test_process_done_sets_flag():
    cluster, problem, workers = make_setup()

    class FakeMsg:
        payload = msg.Done()

    workers[2]._process([FakeMsg()])
    assert workers[2]._done


def test_count_delta_only_accepted_by_root():
    cluster, problem, workers = make_setup()

    class FakeMsg:
        payload = msg.CountDelta(2)

    workers[0]._process([FakeMsg()])
    assert workers[0]._global_count == 2
    with pytest.raises(RuntimeError):
        workers[1]._process([FakeMsg()])


def test_unexpected_payload_raises():
    cluster, problem, workers = make_setup()

    class FakeMsg:
        payload = object()

    with pytest.raises(RuntimeError, match="unexpected"):
        workers[0]._process([FakeMsg()])
