"""Dynamic seed creation during a distributed run (paper §8).

"Another important research area is considering algorithms that do not
depend on an a priori knowledge of all seed points, but add new seed
points dynamically based on an ongoing streamline calculation. ... In
principle, our architecture should be suited to the dynamic creation of
streamlines with few modifications."

Those few modifications, implemented for the Hybrid Master/Slave
algorithm:

* a :class:`ReseedPolicy` is evaluated by the *slave* whenever one of its
  streamlines terminates; any new seed points are sent to the slave's
  master (``NewSeeds``), which adds them to its pool and forwards a
  target-count delta to the root master;
* the termination condition becomes ``terminated == target`` where the
  target grows with every dynamically created seed.  Because a slave
  emits ``NewSeeds`` before the status message carrying the corresponding
  termination delta — and both the slave->master and master->root
  channels preserve order — the root can never observe the count reach a
  stale target.

Policies must bound themselves: ``budget`` caps the total seeds a policy
may create machine-wide (enforced per slave share at the masters).
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.integrate.streamline import Status, Streamline


class ReseedPolicy(abc.ABC):
    """Decides whether a terminating streamline spawns new seeds.

    Implementations must be deterministic and cheap: they run inside the
    slave loop for every terminated curve.
    """

    #: Machine-wide cap on dynamically created seeds.
    budget: int = 1000

    @abc.abstractmethod
    def new_seeds(self, line: Streamline) -> np.ndarray:
        """Seed points (``(k, 3)``, possibly empty) spawned by ``line``."""


class CallbackReseed(ReseedPolicy):
    """Adapt a plain function ``line -> (k, 3) array`` into a policy."""

    def __init__(self, fn: Callable[[Streamline], np.ndarray],
                 budget: int = 1000) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self._fn = fn
        self.budget = budget

    def new_seeds(self, line: Streamline) -> np.ndarray:
        out = np.asarray(self._fn(line), dtype=np.float64)
        if out.size == 0:
            return out.reshape(0, 3)
        if out.ndim != 2 or out.shape[1] != 3:
            raise ValueError(f"reseed callback must return (k, 3), "
                             f"got {out.shape}")
        return out


class ContinueThroughBudget(ReseedPolicy):
    """Respawn curves that ran out of steps at their final position.

    The classic "keep following interesting field lines" policy: a curve
    terminated by ``MAX_STEPS`` continues as a fresh curve from where it
    stopped (e.g. to extend tokamak Poincare sections incrementally),
    until the machine-wide budget is spent.
    """

    def __init__(self, budget: int = 100) -> None:
        self.budget = budget

    def new_seeds(self, line: Streamline) -> np.ndarray:
        if line.status is Status.MAX_STEPS:
            return line.position.reshape(1, 3).copy()
        return np.zeros((0, 3))


class GapRefineReseed(ReseedPolicy):
    """Stream-surface-style refinement: when a curve ends far from where
    its seed-curve neighbour ended, seed the midpoint of their seeds.

    The policy keeps the endpoint of every curve it has seen (keyed by
    seed position along the supplied seeding curve) and emits a midpoint
    seed whenever two adjacent endpoints diverge beyond ``max_gap``.
    Refinement seeds can themselves trigger refinement (Hultquist-style
    front refinement of a stream surface).
    """

    def __init__(self, axis: int = 1, max_gap: float = 0.1,
                 budget: int = 200) -> None:
        if max_gap <= 0:
            raise ValueError("max_gap must be positive")
        self.axis = axis
        self.max_gap = max_gap
        self.budget = budget
        self._ends: List[tuple] = []  # (seed key, seed, endpoint)

    def new_seeds(self, line: Streamline) -> np.ndarray:
        key = float(line.seed[self.axis])
        entry = (key, line.seed.copy(), line.position.copy())
        self._ends.append(entry)
        self._ends.sort(key=lambda e: e[0])
        i = self._ends.index(entry)
        out = []
        for j in (i - 1, i + 1):
            if 0 <= j < len(self._ends):
                kj, seed_j, end_j = self._ends[j]
                if abs(kj - key) > 1e-9 \
                        and np.linalg.norm(end_j - entry[2]) > self.max_gap:
                    out.append(0.5 * (seed_j + entry[1]))
        if not out:
            return np.zeros((0, 3))
        return np.stack(out)
