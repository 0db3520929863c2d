"""Modelled full-scale data sizes.

The benchmarks run on scaled-down sampled blocks (16^3 cells) for speed, but
all cost accounting — filesystem read times, memory pressure, message sizes
— is priced at the *paper's* scale: 512 blocks of one million cells each,
three-component vector data.  :class:`DataCostModel` is the single source of
truth for that pricing, so scaling the actual sample resolution up or down
never changes the simulated economics (DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Modelled bytes per geometry vertex on the wire and in memory
#: (3 float64 coordinates; attribute payloads like time/speed are folded
#: into the per-streamline overhead).
VERTEX_NBYTES = 24

#: Modelled fixed per-streamline memory overhead at full scale.  A VisIt-era
#: integral-curve object buffers seed metadata, solver scratch, and
#: attribute arrays; 512 KiB per curve at paper scale is what makes 22k
#: curves concentrated on one rank exceed a ~1-2 GiB budget (paper §5.3).
STREAMLINE_OVERHEAD_NBYTES = 512 * 1024

#: Modelled wire size of the non-geometry part of a streamline message.
STREAMLINE_HEADER_NBYTES = 256


@dataclass(frozen=True)
class DataCostModel:
    """Full-scale sizes used for all simulated cost accounting.

    Attributes
    ----------
    modelled_cells_per_block:
        Cells per block at paper scale (1M in the scaling studies).
    bytes_per_cell:
        Vector data per cell (3 x float32 = 12 B).
    streamline_overhead_nbytes:
        Fixed resident cost of one buffered integral curve.
    vertex_nbytes:
        Geometry bytes per polyline vertex (wire and resident).
    message_header_nbytes:
        Fixed wire size of any protocol message.
    """

    modelled_cells_per_block: int = 1_000_000
    bytes_per_cell: int = 12
    streamline_overhead_nbytes: int = STREAMLINE_OVERHEAD_NBYTES
    vertex_nbytes: int = VERTEX_NBYTES
    message_header_nbytes: int = STREAMLINE_HEADER_NBYTES

    def __post_init__(self) -> None:
        for name in ("modelled_cells_per_block", "bytes_per_cell",
                     "streamline_overhead_nbytes", "vertex_nbytes",
                     "message_header_nbytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def block_nbytes(self) -> int:
        """Modelled bytes of one block on disk and in memory."""
        return self.modelled_cells_per_block * self.bytes_per_cell

    def streamline_memory_nbytes(self, n_vertices: int) -> int:
        """Modelled resident memory of a curve with ``n_vertices``."""
        if n_vertices < 0:
            raise ValueError(f"negative vertex count: {n_vertices}")
        return self.streamline_overhead_nbytes \
            + n_vertices * self.vertex_nbytes

    def streamline_wire_nbytes(self, n_vertices: int) -> int:
        """Modelled wire size of communicating a curve."""
        return self.message_header_nbytes + n_vertices * self.vertex_nbytes
