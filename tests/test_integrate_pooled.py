"""Tests of the pooled multi-block advection kernel."""

import numpy as np
import pytest

from repro.fields import UniformField, sample_block, sample_field
from repro.fields.library import RigidRotationField
from repro.integrate.config import IntegratorConfig
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import Status, Streamline
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from tests.sampling import block_sample


@pytest.fixture
def rotation_setup():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (6, 6, 6))
    blocks = sample_field(field, dec)
    return field, dec, blocks


def start_line(dec, seed, sid=0):
    bid = int(dec.locate(np.asarray(seed)))
    return Streamline(sid=sid, seed=np.asarray(seed, dtype=float),
                      block_id=bid)


def test_pool_requires_blocks():
    with pytest.raises(ValueError):
        BlockPool([])


def test_pool_rejects_mismatched_dims():
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    d1 = Decomposition(field.domain, (2, 1, 1), (4, 4, 4))
    d2 = Decomposition(field.domain, (1, 1, 1), (6, 6, 6))
    b1 = sample_block(field, d1.info(0))
    b2 = sample_block(field, d2.info(0))
    with pytest.raises(ValueError):
        BlockPool([b1, b2])


def test_line_crosses_blocks_inside_pool(rotation_setup):
    """A full rotation crosses all four xy-quadrant blocks without ever
    leaving the pool."""
    field, dec, blocks = rotation_setup
    pool = BlockPool(list(blocks.values()))
    line = start_line(dec, [0.5, 0.0, 0.1])
    cfg = IntegratorConfig(max_steps=2000, h_max=0.02)
    res = advance_pool([line], pool, field.domain, dec, cfg)
    assert res.exited == []
    assert line.status is Status.MAX_STEPS
    verts = line.vertices()
    quadrants = {(x > 0, y > 0) for x, y in zip(verts[:, 0], verts[:, 1])}
    assert len(quadrants) == 4  # went all the way around


def test_pool_trajectory_identical_to_blockwise(rotation_setup):
    """A growing pool gives exactly the curve of hops over one-block fixed
    pools: the kernel's slot switch is the hop, nothing else differs."""
    field, dec, blocks = rotation_setup
    cfg = IntegratorConfig(max_steps=300, h_max=0.03)
    seed = [0.4, 0.1, -0.2]

    pooled = start_line(dec, seed, sid=0)
    grown = BlockPool([blocks[pooled.block_id]], loader=blocks.__getitem__,
                      n_blocks=dec.n_blocks)
    advance_pool([pooled], grown, field.domain, dec, cfg)
    assert len(grown) > 1

    blockwise = start_line(dec, seed, sid=1)
    hops = 0
    while blockwise.status is Status.ACTIVE:
        advance_pool([blockwise], BlockPool([blocks[blockwise.block_id]]),
                     field.domain, dec, cfg)
        hops += 1
    assert hops > 1

    assert pooled.status == blockwise.status
    assert pooled.steps == blockwise.steps
    assert (pooled.h, pooled.time) == (blockwise.h, blockwise.time)
    assert np.array_equal(pooled.position, blockwise.position)
    assert np.array_equal(pooled.vertices(), blockwise.vertices())


def test_exit_reports_destination_block(rotation_setup):
    field, dec, blocks = rotation_setup
    # Pool with only one quadrant: the circling line must exit and report
    # a valid destination block id.
    line = start_line(dec, [0.5, 0.1, 0.1])
    pool = BlockPool([blocks[line.block_id]])
    cfg = IntegratorConfig(max_steps=2000, h_max=0.02)
    res = advance_pool([line], pool, field.domain, dec, cfg)
    assert res.exited == [line]
    assert line.status is Status.ACTIVE
    assert line.block_id >= 0
    assert dec.info(line.block_id).bounds.contains(line.position)


def test_round_limit_returns_in_pool(rotation_setup):
    field, dec, blocks = rotation_setup
    pool = BlockPool(list(blocks.values()))
    line = start_line(dec, [0.5, 0.0, 0.0])
    cfg = IntegratorConfig(max_steps=1000, h_max=0.01)
    res = advance_pool([line], pool, field.domain, dec, cfg,
                       round_limit=10)
    assert res.in_pool == [line]
    assert line.status is Status.ACTIVE
    assert 0 < line.steps <= 10
    # Resuming continues seamlessly.
    res2 = advance_pool([line], pool, field.domain, dec, cfg)
    assert res2.in_pool == []
    assert line.status is Status.MAX_STEPS


def test_round_limit_resume_matches_single_call(rotation_setup):
    field, dec, blocks = rotation_setup
    cfg = IntegratorConfig(max_steps=120, h_max=0.03)
    pool = BlockPool(list(blocks.values()))

    a = start_line(dec, [0.3, 0.2, 0.4], sid=0)
    advance_pool([a], pool, field.domain, dec, cfg)

    b = start_line(dec, [0.3, 0.2, 0.4], sid=1)
    for _ in range(100):
        res = advance_pool([b], pool, field.domain, dec, cfg,
                           round_limit=7)
        if not res.in_pool:
            break
    assert b.status == a.status
    assert np.allclose(a.vertices(), b.vertices(), atol=1e-14)


def test_mixed_batch_outcomes():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (2, 1, 1), (6, 6, 6))
    blocks = sample_field(field, dec)
    cfg = IntegratorConfig(max_steps=18, h_max=0.05)
    # Line A in block 0 with short budget -> MAX_STEPS inside pool.
    # Line B near the domain's right edge -> OUT_OF_BOUNDS.
    a = start_line(dec, [0.05, 0.5, 0.5], sid=0)
    b = start_line(dec, [0.9, 0.5, 0.5], sid=1)
    pool = BlockPool(list(blocks.values()))
    res = advance_pool([a, b], pool, field.domain, dec, cfg)
    assert a.status is Status.MAX_STEPS
    assert a.steps == cfg.max_steps
    assert b.status is Status.OUT_OF_BOUNDS
    assert sorted(l.sid for l in res.terminated) == [0, 1]
    assert res.exited == [] and res.in_pool == []


def test_wrong_block_id_rejected(rotation_setup):
    field, dec, blocks = rotation_setup
    line = start_line(dec, [0.5, 0.5, 0.5])
    pool = BlockPool([blocks[0]])
    if line.block_id != 0:
        with pytest.raises(ValueError):
            advance_pool([line], pool, field.domain, dec, IntegratorConfig())


def test_sampler_matches_block_velocity(rotation_setup):
    """A slot of a many-block pool samples exactly as its block alone."""
    field, dec, blocks = rotation_setup
    pool = BlockPool(list(blocks.values()))
    rng = np.random.default_rng(0)
    for slot, block in enumerate(pool.blocks):
        pts = block.bounds.denormalized(rng.uniform(0.1, 0.9, (5, 3)))
        f = pool.sampler().bind(np.full(5, slot, dtype=np.int64))
        assert np.array_equal(f(pts), block_sample(block, pts))
