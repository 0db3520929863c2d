"""Tests of in-block advection and the streamline lifecycle: the
``advance_pool`` kernel over a fixed pool of one block."""

import numpy as np
import pytest

from repro.fields import UniformField, sample_block
from repro.fields.library import RigidRotationField, SinkField
from repro.integrate.config import IntegratorConfig
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import Status, Streamline, make_streamlines
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition


def make_setup(field, blocks=(2, 2, 2), cells=(6, 6, 6)):
    return Decomposition(field.domain, blocks, cells)


def advance(lines, field, dec, bid, cfg):
    """Advance ``lines`` within block ``bid`` alone."""
    pool = BlockPool([sample_block(field, dec.info(bid))])
    return advance_pool(lines, pool, field.domain, dec, cfg)


def test_uniform_flow_exits_block():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = make_setup(field)
    line = Streamline(sid=0, seed=np.array([0.1, 0.25, 0.25]),
                      block_id=0)
    cfg = IntegratorConfig(max_steps=500, h_max=0.05)
    res = advance([line], field, dec, 0, cfg)
    assert line.status is Status.ACTIVE
    assert res.exited == [line]
    assert res.terminated == []
    assert line.position[0] > 0.5  # crossed the block face
    # The destination is the block the line now lies in.
    assert line.block_id == dec.linear_id(1, 0, 0)
    assert line.block_id == dec.locate(line.position)


def test_zero_velocity_termination_at_sink():
    field = SinkField(domain=Bounds.cube(-1.0, 1.0))
    dec = make_setup(field)
    bid = int(dec.locate(np.array([0.05, 0.05, 0.05])))
    line = Streamline(sid=0, seed=np.array([0.05, 0.05, 0.05]),
                      block_id=bid)
    cfg = IntegratorConfig(max_steps=5000, min_speed=1e-4, h_max=0.1)
    advance([line], field, dec, bid, cfg)
    assert line.status is Status.ZERO_VELOCITY
    # The particle converged near the origin.
    assert np.linalg.norm(line.position) < 0.05


def test_uniform_flow_eventually_out_of_domain():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = make_setup(field)
    seed = np.array([0.9, 0.25, 0.25])
    bid = int(dec.locate(seed))
    assert bid == dec.linear_id(1, 0, 0)
    line = Streamline(sid=0, seed=seed, block_id=bid)
    cfg = IntegratorConfig(max_steps=500, h_max=0.05)
    res = advance([line], field, dec, bid, cfg)
    assert line.status is Status.OUT_OF_BOUNDS
    assert res.terminated == [line]
    assert res.exited == [] and res.in_pool == []
    assert line.steps >= 1
    assert line.position[0] > 1.0  # the step that left the domain


def test_max_steps_termination():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = make_setup(field)
    line = Streamline(sid=0, seed=np.array([0.05, 0.25, 0.25]),
                      block_id=0)
    cfg = IntegratorConfig(max_steps=10, h_max=0.01)
    res = advance([line], field, dec, 0, cfg)
    assert line.status is Status.MAX_STEPS
    assert line.steps == cfg.max_steps
    assert res.terminated == [line]
    assert res.exited == [] and res.in_pool == []
    # The budget ran out well inside the first block.
    assert dec.locate(line.position) == 0


def test_geometry_accumulates_with_seed_first():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = make_setup(field)
    seed = np.array([0.1, 0.2, 0.2])
    line = Streamline(sid=0, seed=seed, block_id=0)
    cfg = IntegratorConfig(max_steps=100, h_max=0.02)
    advance([line], field, dec, 0, cfg)
    verts = line.vertices()
    assert np.array_equal(verts[0], seed)
    assert len(verts) == line.steps + 1
    # Vertices advance monotonically in x for uniform +x flow.
    assert np.all(np.diff(verts[:, 0]) > 0)


def test_batch_equals_individual_trajectories():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = make_setup(field)
    bid = int(dec.locate(np.array([0.2, 0.2, 0.1])))
    cfg = IntegratorConfig(max_steps=50, h_max=0.02)
    rng = np.random.default_rng(0)
    seeds = dec.info(bid).bounds.denormalized(
        rng.uniform(0.3, 0.7, size=(6, 3)))

    batch_lines = make_streamlines(seeds)
    for l in batch_lines:
        l.block_id = bid
    advance(batch_lines, field, dec, bid, cfg)

    for i, seed in enumerate(seeds):
        solo = Streamline(sid=100 + i, seed=seed, block_id=bid)
        advance([solo], field, dec, bid, cfg)
        batch = batch_lines[i]
        assert solo.status == batch.status
        assert solo.steps == batch.steps
        assert (solo.h, solo.time) == (batch.h, batch.time)
        assert np.array_equal(solo.vertices(), batch.vertices())


def test_empty_batch():
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    dec = make_setup(field)
    res = advance([], field, dec, 0, IntegratorConfig())
    assert res.attempted_steps == 0
    assert res.exited == [] and res.terminated == [] and res.in_pool == []


def test_inactive_line_rejected():
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    dec = make_setup(field)
    line = Streamline(sid=0, seed=np.array([0.1, 0.1, 0.1]), block_id=0)
    line.terminate(Status.MAX_STEPS)
    with pytest.raises(ValueError, match="not active"):
        advance([line], field, dec, 0, IntegratorConfig())


def test_attempted_at_least_accepted():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = make_setup(field)
    bid = int(dec.locate(np.array([0.2, 0.2, 0.0])))
    line = Streamline(sid=0, seed=np.array([0.2, 0.2, 0.0]), block_id=bid)
    cfg = IntegratorConfig(max_steps=40, h_max=0.05)
    res = advance([line], field, dec, bid, cfg)
    assert res.attempted_steps >= res.accepted_steps
    assert res.accepted_steps == line.steps


def test_streamline_state_persists_across_calls():
    """Advancing block-by-block must keep h, steps, and time."""
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = make_setup(field)
    line = Streamline(sid=0, seed=np.array([0.05, 0.3, 0.3]), block_id=0)
    cfg = IntegratorConfig(max_steps=1000, h_max=0.01)
    hops = 0
    while line.status is Status.ACTIVE:
        advance([line], field, dec, line.block_id, cfg)
        hops += 1
        assert hops < 500
    assert line.status is Status.OUT_OF_BOUNDS
    assert hops == 2  # block 0, then block 1, then out of the domain
    # Crossed the whole domain: ~0.95 units of x at |v| = 1.
    assert line.time == pytest.approx(0.95, abs=0.05)
    assert line.steps >= 90
