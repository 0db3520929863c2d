"""Field protocol and base classes.

A :class:`VectorField` maps positions to velocities over a bounded domain.
Analytic fields (the dataset stand-ins) derive from :class:`AnalyticField`;
the sample-then-interpolate pipeline the algorithms actually use is
:func:`~repro.fields.sampling.sample_block` plus
:meth:`~repro.mesh.block.Block.velocity`.
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


class TimeVaryingField(abc.ABC):
    """A field that also depends on time (for the pathline extension §8).

    Provides ``evaluate(points, t)``; a steady :class:`VectorField` can be
    lifted via :class:`FrozenTimeField`.
    """

    name: str = "unsteady-field"

    @property
    @abc.abstractmethod
    def domain(self) -> Bounds: ...

    @property
    @abc.abstractmethod
    def time_range(self) -> tuple[float, float]:
        """Closed ``[t0, t1]`` interval the field is defined on."""

    @abc.abstractmethod
    def evaluate(self, points: np.ndarray, t: float) -> np.ndarray:
        """Velocities at ``points`` and time ``t``."""

    def at_time(self, t: float) -> VectorField:
        """Steady snapshot of this field at time ``t``."""
        return _Snapshot(self, t)


class FrozenTimeField(TimeVaryingField):
    """Lift a steady field into the time-varying interface."""

    def __init__(self, field: VectorField,
                 time_range: tuple[float, float] = (0.0, 1.0)) -> None:
        self.field = field
        self.name = f"frozen({field.name})"
        self._time_range = time_range

    @property
    def domain(self) -> Bounds:
        return self.field.domain

    @property
    def time_range(self) -> tuple[float, float]:
        return self._time_range

    def evaluate(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.field.evaluate(points)


class _Snapshot(AnalyticField):
    """Steady view of a :class:`TimeVaryingField` at a fixed time."""

    def __init__(self, unsteady: TimeVaryingField, t: float) -> None:
        super().__init__(unsteady.domain)
        self._unsteady = unsteady
        self._t = t
        self.name = f"{unsteady.name}@t={t:g}"

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return self._unsteady.evaluate(points, self._t)
