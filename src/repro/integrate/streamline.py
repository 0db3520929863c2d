"""Streamline state and termination bookkeeping.

A :class:`Streamline` is one integral curve being advected through the
block-decomposed domain.  It carries the integrator state (position, step
size, integration time, step count), its geometry (the polyline traced so
far, stored as per-advance segments), and its lifecycle :class:`Status`.

Streamlines are the unit of communication in Static Allocation and the
Hybrid algorithm; their modelled memory and wire sizes are priced by
:class:`~repro.storage.costmodel.DataCostModel` from ``n_vertices``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

import numpy as np


class Status(enum.Enum):
    """Lifecycle of a streamline."""

    ACTIVE = "active"                # still integrating
    OUT_OF_BOUNDS = "out_of_bounds"  # left the global domain
    MAX_STEPS = "max_steps"          # exhausted its step budget
    ZERO_VELOCITY = "zero_velocity"  # reached a critical point
    STEP_UNDERFLOW = "step_underflow"  # adaptive h collapsed below h_min

    @property
    def terminated(self) -> bool:
        return self is not Status.ACTIVE


@dataclass
class Streamline:
    """One integral curve.

    Attributes
    ----------
    sid:
        Globally unique streamline id.
    seed:
        Seed point (shape ``(3,)``).
    position:
        Current head of the curve.
    h:
        Current adaptive step size (integration-parameter units).
    time:
        Accumulated integration parameter t.
    steps:
        Accepted steps so far.
    status:
        Lifecycle state.
    block_id:
        Block currently containing :attr:`position` (``-1`` if outside).
    segments:
        Geometry: list of ``(m_i, 3)`` vertex arrays, one per advance call,
        in order.  The seed is the first vertex of the first segment.
    visited_ranks:
        Ranks that have owned this curve, in first-visit order.  Fed by
        ``Worker.own_line`` on every handoff; a curve arriving at a rank
        already in this list is a *ping-pong* arrival (the
        parallel-over-data pathology diagnostic: geometry bounced back
        to a rank that already paid for it).
    """

    sid: int
    seed: np.ndarray
    position: np.ndarray = field(default=None)  # type: ignore[assignment]
    h: float = 0.0
    time: float = 0.0
    steps: int = 0
    status: Status = Status.ACTIVE
    block_id: int = -1
    segments: List[np.ndarray] = field(default_factory=list)
    visited_ranks: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.seed = np.asarray(self.seed, dtype=np.float64).reshape(3)
        if self.position is None:
            self.position = self.seed.copy()
        else:
            self.position = np.asarray(self.position,
                                       dtype=np.float64).reshape(3)
        # Vertex count maintained incrementally by append_segment — the
        # property is on the per-advance memory-accounting hot path, and
        # re-summing segment lengths on every access is O(total geometry)
        # per run.
        self._n_vertices = sum(len(s) for s in self.segments)

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    def vertices(self) -> np.ndarray:
        """Full polyline as one ``(n, 3)`` array (copy)."""
        if not self.segments:
            return self.seed.reshape(1, 3).copy()
        return np.concatenate(self.segments, axis=0)

    def arc_length(self) -> float:
        """Total length of the polyline."""
        verts = self.vertices()
        if len(verts) < 2:
            return 0.0
        return float(np.sum(np.linalg.norm(np.diff(verts, axis=0), axis=1)))

    def append_segment(self, vertices: np.ndarray) -> None:
        """Attach the vertices produced by one advance call."""
        arr = np.asarray(vertices, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"segment must be (m, 3), got {arr.shape}")
        if len(arr):
            self.segments.append(arr)
            self._n_vertices += len(arr)

    def terminate(self, status: Status) -> None:
        """Mark the curve finished with the given reason."""
        if status is Status.ACTIVE:
            raise ValueError("cannot terminate with ACTIVE")
        if self.status is not Status.ACTIVE:
            raise RuntimeError(
                f"streamline {self.sid} already terminated "
                f"({self.status.value})")
        self.status = status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Streamline(sid={self.sid}, status={self.status.value}, "
                f"steps={self.steps}, block={self.block_id}, "
                f"vertices={self.n_vertices})")


def make_streamlines(seeds: np.ndarray,
                     start_id: int = 0) -> List[Streamline]:
    """Create one streamline per seed point (``(k, 3)`` array)."""
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    if seeds.shape[1] != 3:
        raise ValueError(f"seeds must be (k, 3), got {seeds.shape}")
    return [Streamline(sid=start_id + i, seed=seeds[i])
            for i in range(len(seeds))]
