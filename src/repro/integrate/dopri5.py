"""Dormand-Prince RK5(4) with embedded error estimate.

The integration scheme the paper uses ("Runge-Kutta type with adaptive
stepsize control as proposed by Dormand and Prince").  This is the DOPRI5
tableau (Hairer-Norsett-Wanner); the field is steady (autonomous), so the
stage abscissae c_i never appear.

:meth:`Dopri5.attempt_steps` advances a *batch* of particles through one
trial step each: a pure function of (positions, step sizes) returning
candidate new positions and a normalized error estimate per particle.
The velocity function ``f`` maps positions ``(k, 3)`` to velocities
``(k, 3)`` (a pool's trilinear sampler, or an analytic field in tests).
The caller (the advection kernel) decides acceptance and adapts the step
with :func:`adapt_h`.

Hot-path protocol
-----------------
``attempt_steps`` sits inside the advection round loop where batch sizes
are often tiny (sparse seed sets leave one or two particles per block), so
per-call overhead matters more than per-element work:

* **hoisted validation** — :func:`validate_batch` normalizes and checks the
  batch once; the advection kernel calls it before its round loop and
  then uses :meth:`Dopri5.attempt_steps_prepared`, which skips
  re-validation.  ``attempt_steps`` remains the safe public entry point.
* **stage workspaces** — :meth:`Dopri5.stage_workspace` hands out
  preallocated ``(k, 3)`` scratch arrays reused across calls (grown
  geometrically, sliced per batch), so the hand-unrolled stage arithmetic
  runs entirely with ``out=`` ufuncs.  Only the returned ``(new_pos, err)``
  arrays are freshly allocated — they are part of the public contract and
  must not alias internal scratch.
* **``writes_out``** — a velocity function advertising ``writes_out =
  True`` accepts an ``out=`` array (see
  :class:`~repro.integrate.pooled.PoolSampler`), so stage velocities are
  gathered without allocating.

Every chain below evaluates the exact same left-associated expression tree
as the plain NumPy expressions it replaced, so results are bit-for-bit
unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.integrate.config import IntegratorConfig

VelocityFn = Callable[[np.ndarray], np.ndarray]

# The C kernel behind np.einsum.  For the fixed small contractions on the
# hot path the Python wrapper (subscript parsing/dispatch in einsumfunc)
# costs about as much as the contraction itself; calling the kernel
# directly is bit-for-bit the same computation.  Falls back to np.einsum
# if the private symbol ever moves.
try:  # pragma: no cover - numpy >= 1.25 layout
    from numpy._core._multiarray_umath import c_einsum as fast_einsum
except ImportError:  # pragma: no cover - older layouts
    try:
        from numpy.core._multiarray_umath import c_einsum as fast_einsum
    except ImportError:
        fast_einsum = np.einsum

#: Order of the propagated solution; the step controller scales ``h`` by
#: ``err^(-1/ORDER)``.
ORDER = 5

# DOPRI5 Butcher coefficients (Prince & Dormand 1981).
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                      64448.0 / 6561.0, -212.0 / 729.0)
A61, A62, A63, A64, A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                           46732.0 / 5247.0, 49.0 / 176.0,
                           -5103.0 / 18656.0)
# 5th-order weights (FSAL: identical to the 7th stage row; b2 = 0).
B1, B3, B4, B5, B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                      -2187.0 / 6784.0, 11.0 / 84.0)
# Error weights: b5 - b4 (embedded 4th-order comparison).
E1 = B1 - 5179.0 / 57600.0
E3 = B3 - 7571.0 / 16695.0
E4 = B4 - 393.0 / 640.0
E5 = B5 - (-92097.0 / 339200.0)
E6 = B6 - 187.0 / 2100.0
E7 = -1.0 / 40.0


def validate_batch(pos: np.ndarray,
                   h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize and check one batch; raises on malformed input.

    Returns float64 ``(k, 3)`` positions and ``(k,)`` step sizes.  The
    advection kernel calls this once per advance call and then uses
    :meth:`Dopri5.attempt_steps_prepared` inside its round loop.
    """
    pos = np.asarray(pos, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"pos must be (k, 3), got {pos.shape}")
    if h.shape != (len(pos),):
        raise ValueError(f"h must be ({len(pos)},), got {h.shape}")
    return pos, h


def adapt_h(h: np.ndarray, err: np.ndarray,
            cfg: IntegratorConfig) -> np.ndarray:
    """Standard controller: ``h * clip(safety * err^(-1/5), ...)``.

    ``err == 0`` (an exact step) grows by ``grow_limit``, saturating at
    ``h_max``.
    """
    # err is clamped away from 0 so the negative power stays finite
    # (the huge result is immediately clipped to grow_limit); the
    # chain below reuses one buffer but computes the exact same
    # expression tree as safety * err**(-1/order).
    factor = np.maximum(err, 1e-100)
    np.power(factor, -1.0 / ORDER, out=factor)
    factor *= cfg.safety
    np.clip(factor, cfg.shrink_limit, cfg.grow_limit, out=factor)
    factor *= h
    np.clip(factor, cfg.h_min, cfg.h_max, out=factor)
    return factor


class Dopri5:
    """Adaptive Dormand-Prince 5(4) integrator.

    Parameters
    ----------
    rtol, atol:
        Error-estimate tolerances used to normalize the embedded error.
        The advection kernel passes its :class:`IntegratorConfig`'s; the
        defaults are that class's.
    """

    def __init__(self, rtol: float = IntegratorConfig.rtol,
                 atol: float = IntegratorConfig.atol) -> None:
        if rtol <= 0 or atol <= 0:
            raise ValueError("tolerances must be positive")
        self.rtol = float(rtol)
        self.atol = float(atol)
        self._ws_cap = 0
        self._ws: List[np.ndarray] = []
        #: Memoized per-batch-size views into the workspace buffers.
        self._ws_views: Dict[int, List[np.ndarray]] = {}

    def attempt_steps(self, f: VelocityFn, pos: np.ndarray,
                      h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Trial-step every particle (validating entry point).

        Parameters
        ----------
        f:
            Velocity function ``(k, 3) -> (k, 3)``.
        pos:
            Current positions, ``(k, 3)``.
        h:
            Step sizes, ``(k,)``.

        Returns
        -------
        (new_pos, err):
            Candidate positions ``(k, 3)`` and normalized error ``(k,)``
            (``err <= 1`` means acceptable).  Both are freshly allocated.
        """
        pos, h = validate_batch(pos, h)
        return self.attempt_steps_prepared(f, pos, h)

    def stage_workspace(self, k: int) -> List[np.ndarray]:
        """Ten ``(k, 3)`` float64 scratch arrays, reused across calls.

        Buffers grow geometrically and are sliced to the requested batch
        size, so a shrinking compaction loop allocates at most once.
        Contents are undefined between calls.
        """
        if self._ws_cap < k:
            cap = max(k, 2 * self._ws_cap)
            self._ws_cap = cap
            self._ws = [np.empty((cap, 3), dtype=np.float64)
                        for _ in range(10)]
            self._ws_views = {}
        # Slicing ten buffers per round-loop call is measurable at small
        # k; compaction revisits the same batch sizes constantly, so the
        # sliced views are memoized.
        views = self._ws_views.get(k)
        if views is None:
            views = self._ws_views[k] = [a[:k] for a in self._ws]
        return views


    def attempt_steps_prepared(self, f: VelocityFn, pos: np.ndarray,
                               h: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`attempt_steps`, but ``pos``/``h`` must already be
        validated float64 arrays of matching shape (see
        :func:`validate_batch`)."""
        hc = h[:, None]
        # One writes_out check for the whole step: samplers that advertise
        # it fill the stage buffer, other velocity functions return a fresh
        # array that is used directly.
        writes = getattr(f, "writes_out", False)
        # 7 stage buffers + accumulator t + term scratch u + abs scratch v.
        b1, b2, b3, b4, b5, b6, b7, t, u, v = self.stage_workspace(len(pos))

        k1 = f(pos, out=b1) if writes else f(pos)
        # pos + hc * (A21 * k1)
        np.multiply(k1, A21, out=t)
        t *= hc
        t += pos
        k2 = f(t, out=b2) if writes else f(t)
        # pos + hc * (A31*k1 + A32*k2)
        np.multiply(k1, A31, out=t)
        np.multiply(k2, A32, out=u)
        t += u
        t *= hc
        t += pos
        k3 = f(t, out=b3) if writes else f(t)
        np.multiply(k1, A41, out=t)
        np.multiply(k2, A42, out=u)
        t += u
        np.multiply(k3, A43, out=u)
        t += u
        t *= hc
        t += pos
        k4 = f(t, out=b4) if writes else f(t)
        np.multiply(k1, A51, out=t)
        np.multiply(k2, A52, out=u)
        t += u
        np.multiply(k3, A53, out=u)
        t += u
        np.multiply(k4, A54, out=u)
        t += u
        t *= hc
        t += pos
        k5 = f(t, out=b5) if writes else f(t)
        np.multiply(k1, A61, out=t)
        np.multiply(k2, A62, out=u)
        t += u
        np.multiply(k3, A63, out=u)
        t += u
        np.multiply(k4, A64, out=u)
        t += u
        np.multiply(k5, A65, out=u)
        t += u
        t *= hc
        t += pos
        k6 = f(t, out=b6) if writes else f(t)

        # incr5 = B1*k1 + B3*k3 + B4*k4 + B5*k5 + B6*k6
        np.multiply(k1, B1, out=t)
        np.multiply(k3, B3, out=u)
        t += u
        np.multiply(k4, B4, out=u)
        t += u
        np.multiply(k5, B5, out=u)
        t += u
        np.multiply(k6, B6, out=u)
        t += u
        t *= hc
        new_pos = pos + t  # fresh: part of the return contract
        k7 = f(new_pos, out=b7) if writes else f(new_pos)

        # err_vec = hc * (E1*k1 + E3*k3 + E4*k4 + E5*k5 + E6*k6 + E7*k7)
        np.multiply(k1, E1, out=t)
        np.multiply(k3, E3, out=u)
        t += u
        np.multiply(k4, E4, out=u)
        t += u
        np.multiply(k5, E5, out=u)
        t += u
        np.multiply(k6, E6, out=u)
        t += u
        np.multiply(k7, E7, out=u)
        t += u
        t *= hc

        # scale = atol + rtol * maximum(|pos|, |new_pos|)
        np.abs(pos, out=u)
        np.abs(new_pos, out=v)
        np.maximum(u, v, out=u)
        u *= self.rtol
        u += self.atol
        np.divide(t, u, out=t)  # ratio
        err = fast_einsum("kc,kc->k", t, t)
        err /= 3.0
        np.sqrt(err, out=err)
        return new_pos, err
