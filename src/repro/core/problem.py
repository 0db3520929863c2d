"""Problem specification: dataset + seeds + numerics.

A :class:`ProblemSpec` is everything that defines *what* to compute,
independent of *how* it is parallelized: the vector field, its block
decomposition, the seed set, the integrator configuration, and the data
cost model.  Algorithm and machine are chosen at
:func:`~repro.core.driver.run_streamlines` time, so one spec can be swept
over algorithms and processor counts — the comparison structure of the
paper's §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.fields.base import VectorField
from repro.integrate.config import IntegratorConfig
from repro.mesh.decomposition import Decomposition
from repro.storage.costmodel import DataCostModel


@dataclass(frozen=True)
class ProblemSpec:
    """One streamline-computation problem.

    Attributes
    ----------
    field:
        The vector field (analytic stand-in for the dataset).
    seeds:
        ``(k, 3)`` seed points.
    blocks_per_axis:
        Regular decomposition of the field domain (paper default:
        8x8x8 = 512 blocks).
    cells_per_block:
        *Actual* sampled resolution per block (scaled down for speed; the
        modelled full-scale size lives in ``cost_model``).
    integ:
        Tolerances / step bounds / per-curve step budget of the DOPRI5
        integration (the paper's scheme; there is no other).
    cost_model:
        Full-scale byte pricing for I/O, memory, and messages.
    name:
        Label used in reports.
    """

    field: VectorField
    seeds: np.ndarray
    blocks_per_axis: Tuple[int, int, int] = (8, 8, 8)
    cells_per_block: Tuple[int, int, int] = (16, 16, 16)
    integ: IntegratorConfig = field(default_factory=IntegratorConfig)
    cost_model: DataCostModel = field(default_factory=DataCostModel)
    name: str = ""

    def __post_init__(self) -> None:
        seeds = np.atleast_2d(np.asarray(self.seeds, dtype=np.float64))
        if seeds.ndim != 2 or seeds.shape[1] != 3:
            raise ValueError(f"seeds must be (k, 3), got {seeds.shape}")
        if len(seeds) == 0:
            raise ValueError("need at least one seed")
        seeds = seeds.copy()
        seeds.setflags(write=False)
        object.__setattr__(self, "seeds", seeds)

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    @cached_property
    def decomposition(self) -> Decomposition:
        return Decomposition(self.field.domain, self.blocks_per_axis,
                             self.cells_per_block)

    @property
    def n_blocks(self) -> int:
        return self.decomposition.n_blocks

    @cached_property
    def seed_blocks(self) -> np.ndarray:
        """Initial block id of every seed (``-1`` for out-of-domain)."""
        return self.decomposition.locate(self.seeds)

    def with_seeds(self, seeds: np.ndarray) -> "ProblemSpec":
        return replace(self, seeds=seeds)

    def describe(self) -> str:
        """One-line human-readable summary."""
        bx, by, bz = self.blocks_per_axis
        cx, cy, cz = self.cells_per_block
        return (f"{self.name or self.field.name}: {self.n_seeds} seeds, "
                f"{bx * by * bz} blocks ({bx}x{by}x{bz}) of "
                f"{cx}x{cy}x{cz} cells, "
                f"max_steps={self.integ.max_steps}")
