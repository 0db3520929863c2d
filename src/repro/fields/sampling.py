"""Sampling analytic fields onto block node arrays.

This is the stand-in for the paper's resampling step ("we sampled the
magnetic field onto 512 blocks with 1 million cells per block"): each block's
data array is generated deterministically from the analytic field at its
node coordinates, so "reading a block from disk" in the simulation means
regenerating exactly these samples.
"""

from __future__ import annotations

import numpy as np

from repro.fields.base import VectorField
from repro.mesh.block import Block
from repro.mesh.decomposition import BlockInfo, Decomposition


def sample_block(field: VectorField, info: BlockInfo) -> Block:
    """Sample ``field`` at the node coordinates of one block."""
    xs, ys, zs = info.node_coordinates()
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    values = field.evaluate(pts)
    data = values.reshape(len(xs), len(ys), len(zs), 3)
    return Block(info=info, data=np.ascontiguousarray(data))


def sample_field(field: VectorField,
                 decomposition: Decomposition) -> dict[int, Block]:
    """Sample every block of a decomposition (small problems / tests only).

    Production code paths go through :class:`repro.storage.store.BlockStore`
    so that loads are priced; this helper exists for validation against
    fully-resident data.
    """
    return {info.block_id: sample_block(field, info)
            for info in decomposition}
