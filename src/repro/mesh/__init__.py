"""Block-decomposed rectilinear mesh substrate.

The paper's datasets are regular grids pre-partitioned into spatially
disjoint blocks (512 blocks of 1M cells in the scaling studies).  This
package provides:

``Bounds``            axis-aligned box arithmetic
``Decomposition``     regular splitting of a domain into blocks
``BlockInfo``         static metadata of one block (id, bounds, extents)
``Block``             a loaded block: node-centred vector data, sampled
                      by the pooled kernel's trilinear sampler
"""

from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import BlockInfo, Decomposition
from repro.mesh.block import Block

__all__ = [
    "Block",
    "BlockInfo",
    "Bounds",
    "Decomposition",
]
