"""Numerical streamline integration.

Implements the integration scheme the paper uses — "an integration scheme of
Runge-Kutta type with adaptive stepsize control as proposed by Dormand and
Prince" — as a *batched* integrator: every particle in a pool of loaded
blocks advances in lockstep rounds of vectorized stage evaluations, the
NumPy-idiomatic equivalent of the tight C++ inner loop in VisIt.

Public surface
--------------
``Streamline``        one integral curve: state, status, geometry
``Status``            termination reasons
``IntegratorConfig``  tolerances, step bounds, termination thresholds
``Dopri5``            adaptive Dormand-Prince RK5(4), the paper's scheme
``BlockPool``         loaded blocks stacked for one-gather sampling
``advance_pool``      the advection kernel: lockstep rounds over a pool
``PoolResult``        outcome of one ``advance_pool`` call
``integrate_single``  serial reference: one pooled call over all seeds
"""

from repro.integrate.streamline import Status, Streamline
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5
from repro.integrate.pooled import BlockPool, PoolResult, advance_pool
from repro.integrate.single import integrate_single

__all__ = [
    "BlockPool",
    "Dopri5",
    "IntegratorConfig",
    "PoolResult",
    "Status",
    "Streamline",
    "advance_pool",
    "integrate_single",
]
