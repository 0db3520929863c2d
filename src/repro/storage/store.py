"""Block providers.

A block store answers "give me the data of block *i*" — the paper's
pre-partitioned simulation output sitting on the parallel filesystem.

:class:`BlockStore` generates block data deterministically by sampling the
analytic field at the block's node coordinates (the DESIGN.md substitution
for reading the real datasets); :class:`DiskBlockStore` actually reads
``.npy``-backed block files, proving the same code path works against real
files.  Neither charges simulated I/O time — that is the algorithm runner's
job (it knows which rank is reading and when).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.fields.base import VectorField
from repro.fields.sampling import sample_block
from repro.mesh.block import Block
from repro.mesh.decomposition import Decomposition

#: Magic bytes of the simple block file format.
_MAGIC = b"RPB1"
#: Magic plus five uint32 header fields.
_HEADER = len(_MAGIC) + 5 * 4


class BlockStore:
    """Deterministic on-demand block provider backed by an analytic field.

    Generation is memoized process-wide (blocks are immutable), so the many
    simulated ranks that "redundantly read" a block in Load-On-Demand share
    one real array — the redundancy is priced in simulated time and modelled
    memory, not real RAM.
    """

    def __init__(self, field: VectorField,
                 decomposition: Decomposition) -> None:
        self.field = field
        self.decomposition = decomposition
        self._memo: Dict[int, Block] = {}
        self.generation_count = 0

    @property
    def n_blocks(self) -> int:
        return self.decomposition.n_blocks

    def load(self, block_id: int) -> Block:
        """The (immutable) block with the given id."""
        block = self._memo.get(block_id)
        if block is None:
            info = self.decomposition.info(block_id)
            block = sample_block(self.field, info)
            block.data.setflags(write=False)
            self._memo[block_id] = block
            self.generation_count += 1
        return block


class DiskBlockStore:
    """Block provider reading real block files from a directory.

    Files are named ``block_<id>.rpb`` in the format written by
    :func:`write_block_file`.  Used by the quickstart example's
    save/reload path and by format round-trip tests.
    """

    def __init__(self, directory: Path,
                 decomposition: Decomposition) -> None:
        self.directory = Path(directory)
        self.decomposition = decomposition
        if not self.directory.is_dir():
            raise FileNotFoundError(f"no such directory: {directory}")

    @property
    def n_blocks(self) -> int:
        return self.decomposition.n_blocks

    def path_for(self, block_id: int) -> Path:
        return self.directory / f"block_{block_id:05d}.rpb"

    def load(self, block_id: int) -> Block:
        return Block(info=self.decomposition.info(block_id),
                     data=read_block_file(self.path_for(block_id)))

    @staticmethod
    def write(store: BlockStore, directory: Path) -> "DiskBlockStore":
        """Materialize every block of ``store`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for info in store.decomposition:
            path = directory / f"block_{info.block_id:05d}.rpb"
            write_block_file(path, store.load(info.block_id).data)
        return DiskBlockStore(directory, store.decomposition)


def write_block_file(path: Path, data: np.ndarray) -> None:
    """Write one block's node array in the simple RPB1 format.

    Layout: magic, a ghost-layer count (always 0), 4 dims (uint32
    little-endian), then the float64 array in C order.
    """
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[3] != 3:
        raise ValueError(f"block data must be (nx, ny, nz, 3), "
                         f"got {arr.shape}")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<5I", 0, *arr.shape))
        f.write(arr.tobytes())


def read_block_file(path: Path) -> np.ndarray:
    """Read the node array of a block file written by
    :func:`write_block_file`.

    Raises ``ValueError`` naming ``path`` for anything but exactly one
    well-formed RPB1 block: a bad magic, a cut header, a non-zero ghost
    count, a component count other than 3, or a size that disagrees with
    the header (truncated data or trailing bytes).
    """
    raw = Path(path).read_bytes()
    if raw[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:len(_MAGIC)]!r}")
    if len(raw) < _HEADER:
        raise ValueError(f"{path}: truncated header "
                         f"({len(raw)} of {_HEADER} bytes)")
    ghost, nx, ny, nz, nc = struct.unpack_from("<5I", raw, len(_MAGIC))
    if ghost:
        raise ValueError(f"{path}: {ghost} ghost layers; "
                         "only ghost-free blocks are supported")
    if nc != 3:
        raise ValueError(f"{path}: expected 3 components, got {nc}")
    expected = _HEADER + nx * ny * nz * nc * 8
    if len(raw) < expected:
        raise ValueError(f"{path}: truncated block file "
                         f"({len(raw)} of {expected} bytes)")
    if len(raw) > expected:
        raise ValueError(f"{path}: {len(raw) - expected} trailing bytes "
                         "after the block data")
    data = np.frombuffer(raw, dtype=np.float64, offset=_HEADER)
    return data.reshape(nx, ny, nz, nc).copy()
