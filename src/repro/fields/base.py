"""Field protocol and base classes.

A :class:`VectorField` maps positions to velocities over a bounded domain.
Analytic fields (the dataset stand-ins) derive from :class:`AnalyticField`;
the sample-then-interpolate pipeline the algorithms actually use is
:func:`~repro.fields.sampling.sample_block` plus the pooled kernel's
:class:`~repro.integrate.pooled.PoolSampler`.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.mesh.bounds import Bounds


class VectorField(abc.ABC):
    """A steady 3D vector field on a bounded domain."""

    #: Human-readable identifier used in reports and experiment ids.
    name: str = "field"

    @property
    @abc.abstractmethod
    def domain(self) -> Bounds:
        """Domain of definition; integration terminates on exit."""

    @abc.abstractmethod
    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Velocities at ``points`` (``(k, 3) -> (k, 3)``).

        Implementations must be vectorized and must not mutate ``points``.
        Behaviour outside :attr:`domain` may be arbitrary but must be finite.
        """

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)

    def speed(self, points: np.ndarray) -> np.ndarray:
        """Euclidean speed at ``points`` (``(k, 3) -> (k,)``)."""
        v = self.evaluate(np.atleast_2d(points))
        return np.linalg.norm(v, axis=1)


class AnalyticField(VectorField):
    """Base class for closed-form fields with a stored domain."""

    def __init__(self, domain: Optional[Bounds] = None) -> None:
        self._domain = domain if domain is not None else Bounds.cube(-1.0, 1.0)

    @property
    def domain(self) -> Bounds:
        return self._domain
