"""Unit tests of HybridSlave internals (queues, status, shipping)."""

import numpy as np
import pytest

from repro.core import messages as msg
from repro.core.hybrid_slave import HybridSlave
from repro.core.problem import ProblemSpec
from repro.fields import UniformField
from repro.integrate.streamline import Streamline
from repro.mesh.bounds import Bounds
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec
from repro.storage.costmodel import DataCostModel
from repro.storage.store import BlockStore


@pytest.fixture
def slave_setup():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    problem = ProblemSpec(
        field=field, seeds=np.array([[0.5, 0.5, 0.5]]),
        blocks_per_axis=(2, 2, 2), cells_per_block=(3, 3, 3),
        cost_model=DataCostModel(modelled_cells_per_block=1000))
    cluster = Cluster(MachineSpec(n_ranks=2))
    store = BlockStore(field, problem.decomposition)
    slave = HybridSlave(cluster.context(1), problem, store, master=0)
    return cluster, slave


def drive(cluster, gen):
    cluster.engine.spawn("t", gen)
    cluster.run()


def line_in(slave, bid, sid=0):
    line = Streamline(sid=sid, seed=np.array([0.1, 0.1, 0.1]),
                      block_id=bid)
    slave.own_line(line)
    return line


def test_enqueue_splits_by_residency(slave_setup):
    cluster, slave = slave_setup

    def prog():
        yield from slave.ensure_block(0)
        a = line_in(slave, 0, sid=0)
        b = line_in(slave, 3, sid=1)
        slave._enqueue(a)
        slave._enqueue(b)

    drive(cluster, prog())
    assert [l.sid for l in slave.ready[0]] == [0]
    assert [l.sid for l in slave.waiting[3]] == [1]
    assert slave.total_lines() == 2


def test_lines_by_block_counts(slave_setup):
    cluster, slave = slave_setup

    def prog():
        yield from slave.ensure_block(0)
        for sid, bid in enumerate((0, 0, 5, 5, 5)):
            slave._enqueue(line_in(slave, bid, sid=sid))

    drive(cluster, prog())
    assert slave._lines_by_block() == {0: 2, 5: 3}


def test_promote_moves_waiting_to_ready(slave_setup):
    cluster, slave = slave_setup

    def prog():
        slave._enqueue(line_in(slave, 2, sid=0))
        assert 2 in slave.waiting
        yield from slave.ensure_block(2)
        slave._promote(2)

    drive(cluster, prog())
    assert 2 not in slave.waiting
    assert [l.sid for l in slave.ready[2]] == [0]


def test_ship_lines_releases_memory_and_sends(slave_setup):
    cluster, slave = slave_setup

    def prog():
        lines = [line_in(slave, 4, sid=0), line_in(slave, 4, sid=1)]
        before = slave.ctx.memory.in_use
        assert before > 0
        yield from slave._ship_lines(lines, dest=0)
        assert slave.ctx.memory.in_use == 0
        # Drain at the master endpoint.
        msgs = yield from cluster.network.endpoint(0).recv_wait()
        assert len(msgs) == 1
        assert isinstance(msgs[0].payload, msg.StreamlinePacket)
        assert len(msgs[0].payload.lines) == 2

    drive(cluster, prog())
    assert slave._dirty


def test_ship_no_lines_is_noop(slave_setup):
    cluster, slave = slave_setup

    def prog():
        yield from slave._ship_lines([], dest=0)

    drive(cluster, prog())
    assert slave.ctx.metrics.msgs_sent == 0


def test_status_message_contents(slave_setup):
    cluster, slave = slave_setup

    def prog():
        yield from slave.ensure_block(1)
        slave._enqueue(line_in(slave, 1, sid=0))
        slave._enqueue(line_in(slave, 6, sid=1))
        slave._terminated_delta = 3
        yield from slave._send_status()
        msgs = yield from cluster.network.endpoint(0).recv_wait()
        status = msgs[0].payload
        assert isinstance(status, msg.SlaveStatus)
        assert status.slave == 1
        assert status.lines_by_block == {1: 1, 6: 1}
        assert 1 in status.loaded_blocks
        assert status.advanceable == 1
        assert status.terminated_delta == 3

    drive(cluster, prog())
    assert slave._terminated_delta == 0  # reset after sending
    assert slave._status_in_flight
    assert not slave._dirty


def test_unexpected_message_raises(slave_setup):
    cluster, slave = slave_setup

    class Bogus:
        pass

    def prog():
        fake = msg.CountDelta(1)  # slaves never receive CountDelta
        yield from cluster.network.endpoint(0).send(1, "count", fake, 10)
        inbox = yield from slave.ctx.comm.recv_wait()
        yield from slave._process(inbox)

    cluster.engine.spawn("t", prog())
    with pytest.raises(Exception, match="unexpected message"):
        cluster.run()
