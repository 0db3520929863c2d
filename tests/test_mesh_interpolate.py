"""Tests of trilinear interpolation, on the production sampler
(:class:`~repro.integrate.pooled.PoolSampler` over one block)."""

import numpy as np
import pytest

from repro.integrate.pooled import BlockPool
from repro.mesh.block import Block
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from tests.sampling import block_sample

COEFFS = ((1.0, 2.0, 3.0, 0.5), (-0.5, 0.25, 1.5, -1.0),
          (0.0, -2.0, 0.75, 2.0))


def unit_block(data):
    """A block spanning the unit cube holding ``(nx, ny, nz, 3)`` data."""
    nx, ny, nz = data.shape[:3]
    dec = Decomposition(Bounds.cube(0.0, 1.0), (1, 1, 1),
                        (nx - 1, ny - 1, nz - 1))
    return Block(info=dec.info(0), data=np.ascontiguousarray(data))


def linear_data(nx=5, ny=4, nz=3, coeffs=COEFFS):
    """Node data sampling affine functions: exactly reproducible by
    trilinear interpolation."""
    xs = np.linspace(0, 1, nx)
    ys = np.linspace(0, 1, ny)
    zs = np.linspace(0, 1, nz)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    chans = []
    for (a, b, c, d) in coeffs:
        chans.append(a * gx + b * gy + c * gz + d)
    return np.stack(chans, axis=-1)


def affine(points, coeffs=COEFFS):
    return np.stack([a * points[:, 0] + b * points[:, 1]
                     + c * points[:, 2] + d for (a, b, c, d) in coeffs],
                    axis=1)


def test_reproduces_affine_functions_exactly():
    block = unit_block(linear_data())
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(50, 3))
    assert np.allclose(block_sample(block, pts), affine(pts), atol=1e-12)


def test_node_values_exact():
    data = linear_data(4, 4, 4)
    # Query exactly at node (2, 1, 3) of a 4^3 grid.
    p = np.array([[2 / 3, 1 / 3, 1.0]])
    assert np.allclose(block_sample(unit_block(data), p)[0], data[2, 1, 3])


def test_corners_exact():
    data = linear_data(3, 3, 3)
    block = unit_block(data)
    assert np.allclose(block_sample(block, np.array([[0.0, 0.0, 0.0]]))[0],
                       data[0, 0, 0])
    assert np.allclose(block_sample(block, np.array([[1.0, 1.0, 1.0]]))[0],
                       data[2, 2, 2])


def test_out_of_range_clamps():
    block = unit_block(linear_data(3, 3, 3))
    inside = block_sample(block, np.array([[1.0, 0.5, 0.5]]))
    outside = block_sample(block, np.array([[1.7, 0.5, 0.5]]))
    assert np.array_equal(inside, outside)
    below = block_sample(block, np.array([[-0.4, 0.5, -2.0]]))
    assert np.array_equal(
        below, block_sample(block, np.array([[0.0, 0.5, 0.0]])))


def test_multi_component():
    data = linear_data(coeffs=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    pts = np.array([[0.3, 0.7, 0.2]])
    out = block_sample(unit_block(data), pts)
    assert out.shape == (1, 3)
    assert np.allclose(out[0], [0.3, 0.7, 0.2])


def test_interpolation_is_convex_combination():
    """Interpolated values never exceed the data range (no overshoot)."""
    rng = np.random.default_rng(2)
    data = rng.uniform(-5, 5, size=(6, 6, 6, 3))
    pts = rng.uniform(size=(100, 3))
    out = block_sample(unit_block(data), pts)
    assert out.min() >= data.min() - 1e-12
    assert out.max() <= data.max() + 1e-12


def test_continuity_across_cell_faces():
    rng = np.random.default_rng(3)
    block = unit_block(rng.uniform(size=(5, 5, 5, 3)))
    # Approach an interior node plane from both sides.
    eps = 1e-9
    left = block_sample(block, np.array([[0.5 - eps, 0.3, 0.3]]))
    right = block_sample(block, np.array([[0.5 + eps, 0.3, 0.3]]))
    assert np.allclose(left, right, atol=1e-6)


def test_shape_validation():
    block = unit_block(linear_data())
    bound = BlockPool([block]).sampler().bind(np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        bound(np.zeros((2, 3)))  # not the bound point count
    with pytest.raises(ValueError):
        bound(np.zeros(4))  # k floats, not (k, 3) points
    with pytest.raises(ValueError):
        block_sample(block, np.zeros((4, 2)))  # not (k, 3)
    with pytest.raises(ValueError):
        Block(info=block.info, data=np.zeros((4, 4, 3, 3)))  # node count
    with pytest.raises(ValueError):
        Block(info=block.info, data=np.zeros((5, 4, 3)))  # missing channel


def test_anisotropic_grid():
    block = unit_block(linear_data(9, 3, 17))
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(30, 3))
    assert np.allclose(block_sample(block, pts), affine(pts), atol=1e-12)
