"""Tests of the shared-filesystem contention model."""

import random

import pytest

from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec


def test_single_read_time():
    spec = MachineSpec(n_ranks=1, io_latency=1.0, io_bandwidth=100.0)
    cluster = Cluster(spec)
    elapsed = []

    def prog(ctx):
        t = yield from ctx.read_block_bytes(200)
        elapsed.append(t)

    cluster.engine.spawn("p", prog(cluster.context(0)))
    cluster.run()
    # latency 1.0 + 200/100 service.
    assert elapsed == [pytest.approx(3.0)]
    assert cluster.metrics[0].io_time == pytest.approx(3.0)


def test_reads_queue_on_busy_servers():
    """More concurrent reads than servers: the excess waits."""
    spec = MachineSpec(n_ranks=3, io_latency=0.0, io_bandwidth=100.0,
                       io_servers=1)
    cluster = Cluster(spec)
    times = {}

    def prog(ctx):
        yield from ctx.read_block_bytes(100)  # 1s service each
        times[ctx.rank] = ctx.now

    for r in range(3):
        cluster.engine.spawn(f"p{r}", prog(cluster.context(r)))
    cluster.run()
    assert sorted(times.values()) == [pytest.approx(1.0),
                                      pytest.approx(2.0),
                                      pytest.approx(3.0)]
    assert cluster.filesystem.total_wait > 0


def test_parallel_servers_avoid_queueing():
    spec = MachineSpec(n_ranks=3, io_latency=0.0, io_bandwidth=100.0,
                       io_servers=3)
    cluster = Cluster(spec)
    times = {}

    def prog(ctx):
        yield from ctx.read_block_bytes(100)
        times[ctx.rank] = ctx.now

    for r in range(3):
        cluster.engine.spawn(f"p{r}", prog(cluster.context(r)))
    cluster.run()
    assert all(t == pytest.approx(1.0) for t in times.values())
    assert cluster.filesystem.total_wait == 0.0
    assert cluster.filesystem.mean_queue_delay == 0.0


def test_filesystem_counters():
    cluster = Cluster(MachineSpec(n_ranks=1))

    def prog(ctx):
        yield from ctx.read_block_bytes(1000)
        yield from ctx.read_block_bytes(2000)

    cluster.engine.spawn("p", prog(cluster.context(0)))
    cluster.run()
    assert cluster.filesystem.total_reads == 2
    assert cluster.filesystem.total_bytes == 3000


def test_negative_read_rejected():
    cluster = Cluster(MachineSpec(n_ranks=1))

    def prog(ctx):
        yield from ctx.read_block_bytes(-1)

    cluster.engine.spawn("p", prog(cluster.context(0)))
    with pytest.raises(Exception):
        cluster.run()


def test_server_choice_is_deterministic():
    def run_once():
        spec = MachineSpec(n_ranks=4, io_servers=2)
        cluster = Cluster(spec)
        times = {}

        def prog(ctx):
            yield from ctx.read_block_bytes(10_000_000)
            times[ctx.rank] = ctx.now

        for r in range(4):
            cluster.engine.spawn(f"p{r}", prog(cluster.context(r)))
        cluster.run()
        return times

    assert run_once() == run_once()


def test_server_pick_is_least_busy_then_lowest_index():
    """Each read occupies the server that frees up first; equal busy
    times go to the lowest index (the rule is evaluated independently
    here before every read).  All reads are issued at time 0, so many
    servers tie."""
    spec = MachineSpec(n_ranks=1, io_servers=5, io_latency=0.0,
                       io_bandwidth=100.0)
    fs = Cluster(spec).filesystem
    rng = random.Random(7)
    picks = []
    for _ in range(200):
        busy = list(fs._server_busy_until)
        picks.append(min(range(len(busy)), key=lambda i: (busy[i], i)))
        read = fs.read(0, rng.choice([100, 100, 200]))
        next(read)  # the pick and the booking happen before the Sleep
        read.close()
        changed = [i for i, (a, b) in
                   enumerate(zip(busy, fs._server_busy_until)) if a != b]
        assert changed == [picks[-1]]
    assert picks[:5] == [0, 1, 2, 3, 4]
    assert fs.total_reads == 200
