"""Tests of loaded blocks, sampled by the production trilinear sampler."""

import numpy as np
import pytest

from repro.fields import UniformField, sample_block
from repro.fields.library import RigidRotationField
from repro.mesh.block import Block
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from tests.sampling import block_sample


@pytest.fixture
def dec():
    return Decomposition(Bounds.cube(0.0, 1.0), (2, 2, 2), (4, 4, 4))


def test_block_shape_validation(dec):
    info = dec.info(0)
    with pytest.raises(ValueError):
        Block(info=info, data=np.zeros((3, 3, 3, 3)))
    with pytest.raises(ValueError):
        Block(info=info, data=np.zeros((5, 5, 5, 3), dtype=np.float32))


def test_sampled_block_matches_field_at_nodes(dec):
    field = RigidRotationField(domain=Bounds.cube(0.0, 1.0))
    block = sample_block(field, dec.info(3))
    xs, ys, zs = dec.info(3).node_coordinates()
    p = np.array([[xs[2], ys[1], zs[3]]])
    assert np.allclose(block_sample(block, p), field.evaluate(p),
                       atol=1e-12)


def test_velocity_single_vs_batch(dec):
    field = RigidRotationField(domain=Bounds.cube(0.0, 1.0))
    block = sample_block(field, dec.info(0))
    pts = np.array([[0.1, 0.2, 0.3], [0.3, 0.1, 0.2]])
    batch = block_sample(block, pts)
    assert batch.shape == (2, 3)
    for i in range(2):
        assert np.array_equal(block_sample(block, pts[i:i + 1])[0], batch[i])


def test_velocity_exact_for_linear_field(dec):
    """Rotation is linear in position, so trilinear sampling is exact."""
    field = RigidRotationField(domain=Bounds.cube(0.0, 1.0))
    block = sample_block(field, dec.info(5))
    rng = np.random.default_rng(0)
    unit = rng.uniform(size=(40, 3))
    pts = block.bounds.denormalized(unit)
    assert np.allclose(block_sample(block, pts), field.evaluate(pts),
                       atol=1e-12)


def test_contains(dec):
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    block = sample_block(field, dec.info(0))
    assert block.contains(np.array([0.25, 0.25, 0.25]))
    assert not bool(np.all(block.contains(np.array([[0.75, 0.25, 0.25]]))))


def test_block_ids_and_bounds(dec):
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    block = sample_block(field, dec.info(6))
    assert block.block_id == 6
    assert block.bounds == dec.info(6).bounds
    assert block.nbytes_actual == block.data.nbytes
