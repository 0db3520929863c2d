"""Tests of trilinear interpolation."""

import numpy as np
import pytest

from repro.mesh.interpolate import trilinear


def linear_data(nx=5, ny=4, nz=3, coeffs=((1.0, 2.0, 3.0, 0.5),)):
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


def affine(points, a=1.0, b=2.0, c=3.0, d=0.5):
    return (a * points[:, 0] + b * points[:, 1] + c * points[:, 2] + d)


def test_reproduces_affine_functions_exactly():
    data = linear_data()
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(50, 3))
    out = trilinear(data, pts)
    assert np.allclose(out[:, 0], affine(pts), atol=1e-12)


def test_node_values_exact():
    data = linear_data(4, 4, 4)
    # Query exactly at node (2, 1, 3) of a 4^3 grid.
    p = np.array([[2 / 3, 1 / 3, 1.0]])
    assert np.allclose(trilinear(data, p)[0, 0], data[2, 1, 3, 0])


def test_corners_exact():
    data = linear_data(3, 3, 3)
    assert np.allclose(trilinear(data, np.array([[0.0, 0.0, 0.0]]))[0, 0],
                       data[0, 0, 0, 0])
    assert np.allclose(trilinear(data, np.array([[1.0, 1.0, 1.0]]))[0, 0],
                       data[2, 2, 2, 0])


def test_out_of_range_clamps():
    data = linear_data(3, 3, 3)
    inside = trilinear(data, np.array([[1.0, 0.5, 0.5]]))
    outside = trilinear(data, np.array([[1.7, 0.5, 0.5]]))
    assert np.allclose(inside, outside)


def test_multi_component():
    data = linear_data(coeffs=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    pts = np.array([[0.3, 0.7, 0.2]])
    out = trilinear(data, pts)
    assert out.shape == (1, 3)
    assert np.allclose(out[0], [0.3, 0.7, 0.2])


def test_interpolation_is_convex_combination():
    """Interpolated values never exceed the data range (no overshoot)."""
    rng = np.random.default_rng(2)
    data = rng.uniform(-5, 5, size=(6, 6, 6, 1))
    pts = rng.uniform(size=(100, 3))
    out = trilinear(data, pts)
    assert out.min() >= data.min() - 1e-12
    assert out.max() <= data.max() + 1e-12


def test_continuity_across_cell_faces():
    rng = np.random.default_rng(3)
    data = rng.uniform(size=(5, 5, 5, 2))
    # Approach an interior node plane from both sides.
    eps = 1e-9
    left = trilinear(data, np.array([[0.5 - eps, 0.3, 0.3]]))
    right = trilinear(data, np.array([[0.5 + eps, 0.3, 0.3]]))
    assert np.allclose(left, right, atol=1e-6)


def test_shape_validation():
    data = linear_data()
    with pytest.raises(ValueError):
        trilinear(data, np.zeros((3,)))  # not (k, 3)
    with pytest.raises(ValueError):
        trilinear(np.zeros((1, 4, 4, 3)), np.zeros((1, 3)))  # too few nodes
    with pytest.raises(ValueError):
        trilinear(np.zeros((4, 4, 4)), np.zeros((1, 3)))  # missing channel


def test_anisotropic_grid():
    data = linear_data(9, 3, 17)
    rng = np.random.default_rng(4)
    pts = rng.uniform(size=(30, 3))
    assert np.allclose(trilinear(data, pts)[:, 0], affine(pts), atol=1e-12)
