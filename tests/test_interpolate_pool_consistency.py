"""Consistency between the interpolation paths.

A block sampled alone (a one-slot pool), the same block as one slot of
a many-block ``BlockPool.sampler().bind`` (the pooled flat-gather the
advection kernel runs) and the naive reference ``_naive_sample`` must
agree bit-for-bit — the algorithms' geometry-identity guarantee depends
on it.
"""

import numpy as np
import pytest

from repro.fields import SupernovaField, sample_field
from repro.integrate.pooled import BlockPool
from repro.mesh.decomposition import Decomposition
from tests.sampling import block_sample
from tests.test_kernel_equivalence import _naive_sample


@pytest.fixture(scope="module")
def setup():
    field = SupernovaField()
    dec = Decomposition(field.domain, (2, 2, 2), (5, 5, 5))
    blocks = sample_field(field, dec)
    pool = BlockPool([blocks[i] for i in range(8)])
    return field, dec, blocks, pool


def test_three_paths_agree(setup):
    field, dec, blocks, pool = setup
    rng = np.random.default_rng(0)
    for bid in range(8):
        block = blocks[bid]
        pts = block.bounds.denormalized(rng.uniform(0.05, 0.95, (20, 3)))

        via_block = block_sample(block, pts)
        slots = np.full(20, pool.slot_of[bid], dtype=np.int64)
        via_pool = pool.sampler().bind(slots)(pts)

        assert np.array_equal(via_block, via_pool)
        assert np.array_equal(via_block, _naive_sample(pool, slots, pts))


def test_pool_mixed_slots_agree_with_per_block(setup):
    field, dec, blocks, pool = setup
    rng = np.random.default_rng(1)
    # One point in each block, evaluated in a single mixed-slot call.
    pts = np.stack([blocks[b].bounds.denormalized(rng.uniform(0.2, 0.8, 3))
                    for b in range(8)])
    slots = np.array([pool.slot_of[b] for b in range(8)], dtype=np.int64)
    mixed = pool.sampler().bind(slots)(pts)
    for i in range(8):
        solo = block_sample(blocks[i], pts[i:i + 1])[0]
        assert np.array_equal(mixed[i], solo)


def test_clamping_identical_at_faces(setup):
    """Points epsilon outside a block clamp identically in all paths."""
    field, dec, blocks, pool = setup
    block = blocks[0]
    p = (block.bounds.hi_array + 1e-9)[None, :]  # just outside the +corner
    via_block = block_sample(block, p)
    slots = np.array([pool.slot_of[0]], dtype=np.int64)
    via_pool = pool.sampler().bind(slots)(p)
    assert np.array_equal(via_block, via_pool)
    assert np.array_equal(via_block, _naive_sample(pool, slots, p))
