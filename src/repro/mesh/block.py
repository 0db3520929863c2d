"""A loaded block: metadata plus node-centred vector data.

Blocks are produced by the :class:`~repro.storage.store.BlockStore` (which
models reading them from the parallel filesystem) and held in per-rank LRU
caches.  Data is a ``(nx, ny, nz, 3)`` float64 array of node-centred vectors;
neighbouring blocks share their boundary nodes, so interpolation is
continuous across faces without ghost layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import BlockInfo


def corner_offsets(ny: int, nz: int) -> np.ndarray:
    """Flat-index offsets of a cell's 8 corners in C-ordered (nx,ny,nz)."""
    return np.array([
        0, 1, nz, nz + 1,
        ny * nz, ny * nz + 1, ny * nz + nz, ny * nz + nz + 1,
    ], dtype=np.int64)


@dataclass
class Block:
    """One resident block of vector data."""

    info: BlockInfo
    data: np.ndarray  # (nx, ny, nz, 3) node-centred vectors

    def __post_init__(self) -> None:
        want = tuple(self.info.node_dims) + (3,)
        if self.data.shape != want:
            raise ValueError(
                f"block {self.info.block_id}: data shape {self.data.shape} "
                f"!= expected {want}")
        if self.data.dtype != np.float64:
            raise ValueError(f"block data must be float64, "
                             f"got {self.data.dtype}")
        # Precompute the affine map point -> continuous node coordinates
        # and a flat view of the data for the pooled kernel's sampler
        # (BlockPool stacks these).
        bounds = self.info.bounds
        dims = self.data.shape[:3]
        size = bounds.hi_array - bounds.lo_array
        self._lo = bounds.lo_array
        self._node_scale = (np.asarray(dims, dtype=np.float64) - 1.0) / size
        self._node_max = np.asarray(dims, dtype=np.float64) - 1.0
        self._flat = np.ascontiguousarray(self.data).reshape(-1, 3)

    @property
    def block_id(self) -> int:
        return self.info.block_id

    @property
    def bounds(self) -> Bounds:
        return self.info.bounds

    @property
    def nbytes_actual(self) -> int:
        """Real in-process memory of the data array."""
        return int(self.data.nbytes)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Mask of points inside this block's bounds."""
        return self.info.bounds.contains(points)
