"""Tests of field base classes and block sampling."""

import numpy as np

from repro.fields.library import RigidRotationField, UniformField
from repro.fields.sampling import sample_block, sample_field
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from tests.sampling import block_sample


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
    assert np.allclose(block_sample(left, face_pts),
                       block_sample(right, face_pts), atol=1e-13)
