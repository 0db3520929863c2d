"""Tests of field base classes and block sampling."""

import numpy as np

from repro.fields.base import FrozenTimeField
from repro.fields.library import RigidRotationField, UniformField
from repro.fields.sampling import sample_block, sample_field
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition


def test_frozen_time_field_is_time_independent():
    base = UniformField(velocity=(1.0, 2.0, 3.0))
    frozen = FrozenTimeField(base, time_range=(0.0, 5.0))
    p = np.array([[0.5, 0.5, 0.5]])
    assert np.allclose(frozen.evaluate(p, 0.0), frozen.evaluate(p, 4.9))
    assert frozen.time_range == (0.0, 5.0)
    assert frozen.domain == base.domain


def test_snapshot_of_unsteady_field():
    base = UniformField(velocity=(2.0, 0.0, 0.0))
    frozen = FrozenTimeField(base)
    snap = frozen.at_time(0.3)
    p = np.array([[0.1, 0.1, 0.1]])
    assert np.allclose(snap.evaluate(p), [[2.0, 0.0, 0.0]])
    assert "0.3" in snap.name


def test_sample_block_nodes_exact():
    field = RigidRotationField(domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (4, 4, 4))
    block = sample_block(field, dec.info(2))
    xs, ys, zs = dec.info(2).node_coordinates()
    for (i, j, k) in ((0, 0, 0), (2, 1, 3), (4, 4, 4)):
        p = np.array([[xs[i], ys[j], zs[k]]])
        assert np.allclose(block.data[i, j, k], field.evaluate(p)[0])


def test_sample_field_covers_all_blocks():
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 1), (3, 3, 3))
    blocks = sample_field(field, dec)
    assert set(blocks) == set(range(4))
    assert all(blocks[i].block_id == i for i in blocks)


def test_neighbouring_samples_agree_on_shared_face():
    """Neighbouring blocks share boundary nodes, so interpolation is
    continuous across faces without ghost data."""
    field = RigidRotationField(domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (2, 1, 1), (4, 4, 4))
    left = sample_block(field, dec.info(0))
    right = sample_block(field, dec.info(1))
    assert np.allclose(left.data[-1, :, :, :], right.data[0, :, :, :])
    # And the sampled velocity agrees exactly on the face.
    face_pts = np.array([[0.5, y, z] for y in (0.1, 0.6)
                         for z in (0.3, 0.9)])
    assert np.allclose(left.velocity(face_pts), right.velocity(face_pts),
                       atol=1e-13)
