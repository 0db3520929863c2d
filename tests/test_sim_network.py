"""Tests of the simulated network and comm endpoints."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.engine import Sleep
from repro.sim.machine import MachineSpec
from repro.sim.network import Message
from repro.sim.metrics import RankMetrics


def make_cluster(n=2, **overrides):
    return Cluster(MachineSpec(n_ranks=n, **overrides))


def test_send_and_recv_roundtrip():
    cluster = make_cluster()
    got = []

    def sender(ctx):
        yield from ctx.comm.send(1, "test", {"x": 1}, 100)

    def receiver(ctx):
        msgs = yield from ctx.comm.recv_wait()
        got.extend(msgs)

    cluster.engine.spawn("s", sender(cluster.context(0)))
    cluster.engine.spawn("r", receiver(cluster.context(1)))
    cluster.run()
    assert len(got) == 1
    assert got[0].payload == {"x": 1}
    assert got[0].src == 0 and got[0].dst == 1
    assert got[0].kind == "test"
    assert got[0].nbytes == 100


def test_send_to_self_rejected():
    cluster = make_cluster()

    def prog(ctx):
        yield from ctx.comm.send(0, "x", None, 10)

    cluster.engine.spawn("p", prog(cluster.context(0)))
    with pytest.raises(Exception):
        cluster.run()


def test_message_arrival_time_includes_latency_and_bandwidth():
    spec = MachineSpec(n_ranks=2, comm_latency=1.0, comm_bandwidth=100.0,
                       comm_post_overhead=0.0, comm_post_per_byte=0.0)
    cluster = Cluster(spec)
    arrival = []

    def sender(ctx):
        yield from ctx.comm.send(1, "x", None, 200)  # 2s wire + 1s latency

    def receiver(ctx):
        yield from ctx.comm.recv_wait()
        arrival.append(ctx.now)

    cluster.engine.spawn("s", sender(cluster.context(0)))
    cluster.engine.spawn("r", receiver(cluster.context(1)))
    cluster.run()
    assert arrival == [pytest.approx(3.0)]


def test_sender_nic_serializes_messages():
    """Two back-to-back sends share the sender's NIC: the second departs
    only after the first's wire time."""
    spec = MachineSpec(n_ranks=3, comm_latency=0.0, comm_bandwidth=100.0,
                       comm_post_overhead=0.0, comm_post_per_byte=0.0)
    cluster = Cluster(spec)
    arrivals = {}

    def sender(ctx):
        yield from ctx.comm.send(1, "x", None, 100)  # 1s wire
        yield from ctx.comm.send(2, "x", None, 100)  # queued behind

    def receiver(ctx):
        yield from ctx.comm.recv_wait()
        arrivals[ctx.rank] = ctx.now

    cluster.engine.spawn("s", sender(cluster.context(0)))
    cluster.engine.spawn("r1", receiver(cluster.context(1)))
    cluster.engine.spawn("r2", receiver(cluster.context(2)))
    cluster.run()
    assert arrivals[1] == pytest.approx(1.0)
    assert arrivals[2] == pytest.approx(2.0)


def test_post_time_charged_to_comm_timer():
    spec = MachineSpec(n_ranks=2, comm_post_overhead=0.5,
                       comm_post_per_byte=0.001)
    cluster = Cluster(spec)

    def sender(ctx):
        yield from ctx.comm.send(1, "x", None, 1000)

    def receiver(ctx):
        yield from ctx.comm.recv_wait()

    cluster.engine.spawn("s", sender(cluster.context(0)))
    cluster.engine.spawn("r", receiver(cluster.context(1)))
    cluster.run()
    # Sender: overhead + 1000 * per_byte = 0.5 + 1.0.
    assert cluster.metrics[0].comm_time == pytest.approx(1.5)
    # Receiver: one drain overhead.
    assert cluster.metrics[1].comm_time == pytest.approx(0.5)
    assert cluster.metrics[0].msgs_sent == 1
    assert cluster.metrics[0].bytes_sent == 1000
    assert cluster.metrics[1].msgs_received == 1


def test_try_recv_does_not_block():
    cluster = make_cluster()
    out = []

    def prog(ctx):
        msgs = yield from ctx.comm.try_recv()
        out.append(len(msgs))

    def other(ctx):
        yield Sleep(0.0)

    cluster.engine.spawn("p", prog(cluster.context(0)))
    cluster.engine.spawn("o", other(cluster.context(1)))
    cluster.run()
    assert out == [0]


def test_recv_wait_drains_all_pending():
    cluster = make_cluster()
    got = []

    def sender(ctx):
        for i in range(5):
            yield from ctx.comm.send(1, "n", i, 10)

    def receiver(ctx):
        yield Sleep(10.0)  # let everything arrive
        msgs = yield from ctx.comm.recv_wait()
        got.append([m.payload for m in msgs])

    cluster.engine.spawn("s", sender(cluster.context(0)))
    cluster.engine.spawn("r", receiver(cluster.context(1)))
    cluster.run()
    assert got == [[0, 1, 2, 3, 4]]


def test_messages_from_one_sender_preserve_order():
    cluster = make_cluster()
    seen = []

    def sender(ctx):
        for i in range(20):
            yield from ctx.comm.send(1, "seq", i, 64)

    def receiver(ctx):
        while len(seen) < 20:
            msgs = yield from ctx.comm.recv_wait()
            seen.extend(m.payload for m in msgs)

    cluster.engine.spawn("s", sender(cluster.context(0)))
    cluster.engine.spawn("r", receiver(cluster.context(1)))
    cluster.run()
    assert seen == list(range(20))


def test_network_totals():
    cluster = make_cluster()

    def sender(ctx):
        yield from ctx.comm.send(1, "a", None, 100)
        yield from ctx.comm.send(1, "b", None, 200)

    def receiver(ctx):
        total = 0
        while total < 2:
            msgs = yield from ctx.comm.recv_wait()
            total += len(msgs)

    cluster.engine.spawn("s", sender(cluster.context(0)))
    cluster.engine.spawn("r", receiver(cluster.context(1)))
    cluster.run()
    assert cluster.network.total_messages == 2
    assert cluster.network.total_bytes == 300


def test_negative_message_size_rejected():
    cluster = make_cluster()

    def prog(ctx):
        yield from ctx.comm.send(1, "x", None, -5)

    cluster.engine.spawn("p", prog(cluster.context(0)))
    with pytest.raises(Exception):
        cluster.run()


def test_message_record_rejects_negative_size():
    with pytest.raises(ValueError, match="negative message size"):
        Message(src=0, dst=1, kind="x", payload=None, nbytes=-1,
                send_time=0.0, msg_id=0)
    msg = Message(0, 1, "x", None, 0, 0.0, 0)
    assert not hasattr(msg, "__dict__")
    with pytest.raises(TypeError):
        hash(msg)


@pytest.mark.parametrize("overhead", [1.0e-5, 0.1, 3.3e-7, 0.0])
def test_receive_post_cost_table_equals_sum(overhead):
    """The cumulative table is bit-identical to the per-drain ``sum``."""
    net = make_cluster(comm_post_overhead=overhead).network
    for count in (5, 0, 300, 1, 64):  # grows out of order
        expect = sum(overhead for _ in range(count))
        got = net.recv_post_cost(count)
        assert got == expect and type(got) is type(expect), count
    assert all(net.recv_post_cost(k) == sum(overhead for _ in range(k))
               for k in range(301))
