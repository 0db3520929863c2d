"""Block-decomposed rectilinear mesh substrate.

The paper's datasets are regular grids pre-partitioned into spatially
disjoint blocks (512 blocks of 1M cells in the scaling studies).  This
package provides:

``Bounds``            axis-aligned box arithmetic
``Decomposition``     regular splitting of a domain into blocks
``BlockInfo``         static metadata of one block (id, bounds, extents)
``Block``             a loaded block: node-centred vector data, sampled
                      by the pooled kernel's trilinear sampler
``BlockLocator``      O(1) point -> block-id lookup
``neighbors``         block adjacency topology (face/edge/corner)
"""

from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import BlockInfo, Decomposition
from repro.mesh.block import Block
from repro.mesh.locator import BlockLocator
from repro.mesh.topology import block_adjacency, face_neighbors

__all__ = [
    "Block",
    "BlockInfo",
    "BlockLocator",
    "Bounds",
    "Decomposition",
    "block_adjacency",
    "face_neighbors",
]
