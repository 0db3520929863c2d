"""Test helper: the production trilinear sampler applied to one block.

Interpolation properties are asserted on the sampler the advection kernel
runs, :class:`~repro.integrate.pooled.PoolSampler`, through a one-slot
:class:`~repro.integrate.pooled.BlockPool`.
"""

import numpy as np

from repro.integrate.pooled import BlockPool


def block_sample(block, points):
    """Trilinear velocities of ``block`` at ``points`` (``(k, 3)``)."""
    pts = np.asarray(points, dtype=np.float64)
    sampler = BlockPool([block]).sampler()
    return sampler.bind(np.zeros(len(pts), dtype=np.int64))(pts)
