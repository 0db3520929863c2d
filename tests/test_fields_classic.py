"""Tests of the Hill's-vortex and Lorenz reference fields."""

import numpy as np
import pytest

from repro.fields import HillsVortexField, LorenzField
from repro.integrate import IntegratorConfig, integrate_single
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition


def test_hills_velocity_continuous_at_sphere():
    f = HillsVortexField()
    rng = np.random.default_rng(0)
    d = rng.normal(size=(40, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    inner = f.evaluate(d * (f.radius - 1e-7))
    outer = f.evaluate(d * (f.radius + 1e-7))
    assert np.allclose(inner, outer, atol=1e-5)


def test_hills_stream_function_is_invariant():
    """u . grad(psi) = 0 everywhere (checked by finite differences)."""
    f = HillsVortexField()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.8, 0.8, size=(150, 3))
    eps = 1e-6
    grad = np.zeros_like(pts)
    for ax in range(3):
        d = np.zeros(3)
        d[ax] = eps
        grad[:, ax] = (f.stream_function(pts + d)
                       - f.stream_function(pts - d)) / (2 * eps)
    v = f.evaluate(pts)
    assert np.max(np.abs(np.einsum("kc,kc->k", v, grad))) < 1e-8


def test_hills_psi_conserved_along_integrated_streamline():
    """The analytic invariant holds along an actually integrated curve
    (direct analytic evaluation, fine adaptive steps)."""
    from repro.integrate.dopri5 import Dopri5, adapt_h

    f = HillsVortexField()
    cfg = IntegratorConfig(rtol=1e-9, atol=1e-11, h_init=0.005,
                           h_max=0.01)
    d = Dopri5(cfg.rtol, cfg.atol)
    pos = np.array([[0.25, 0.0, 0.1]])
    psi0 = f.stream_function(pos)[0]
    h = np.array([cfg.h_init])
    drift = 0.0
    for _ in range(400):
        new_pos, err = d.attempt_steps(f.evaluate, pos, h)
        if err[0] <= 1.0:
            pos = new_pos
            drift = max(drift, abs(f.stream_function(pos)[0] - psi0))
        h = adapt_h(h, err, cfg)
    assert drift < 1e-6


def test_hills_axis_is_regular():
    f = HillsVortexField()
    v = f.evaluate(np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.0]]))
    assert np.all(np.isfinite(v))
    assert np.allclose(v[:, :2], 0.0)  # axisymmetric: no swirl on axis


def test_hills_far_field_approaches_stream():
    f = HillsVortexField(radius=0.2, stream_speed=2.0)
    v = f.evaluate(np.array([[0.0, 0.0, 0.95]]))
    assert v[0, 2] == pytest.approx(2.0, rel=0.05)


def test_hills_validation():
    with pytest.raises(ValueError):
        HillsVortexField(radius=0.0)


def test_lorenz_fixed_points():
    """The Lorenz system's equilibria are zeros of the field."""
    f = LorenzField()
    b, r = f.beta, f.rho
    c = np.sqrt(b * (r - 1))
    fixed = np.array([[0.0, 0.0, 0.0],
                      [c, c, r - 1.0],
                      [-c, -c, r - 1.0]]) / f.scale
    v = f.evaluate(fixed)
    assert np.allclose(v, 0.0, atol=1e-12)


def test_lorenz_trajectories_stay_bounded_on_attractor():
    """Integrated through the sampled pipeline, Lorenz trajectories stay
    in the domain box for a long time (the attractor is inside)."""
    f = LorenzField()
    dec = Decomposition(f.domain, (4, 4, 4), (8, 8, 8))
    seeds = np.array([[0.1, 0.1, 1.0], [0.2, -0.1, 0.8]])
    cfg = IntegratorConfig(max_steps=400, h_max=0.01, rtol=1e-6,
                           atol=1e-8)
    lines = integrate_single(f, dec, seeds, cfg)
    for l in lines:
        assert l.steps > 100  # did not exit immediately
        assert np.all(np.isfinite(l.vertices()))


def test_lorenz_sensitive_dependence():
    """Two nearby seeds separate (chaos) — distinguishes Lorenz from a
    regular field at the same speed scale."""
    f = LorenzField()
    dec = Decomposition(f.domain, (2, 2, 2), (10, 10, 10))
    eps = 1e-4
    seeds = np.array([[0.1, 0.1, 1.0], [0.1 + eps, 0.1, 1.0]])
    cfg = IntegratorConfig(max_steps=600, h_init=0.005, h_max=0.005,
                           rtol=1e-7, atol=1e-9)
    lines = integrate_single(f, dec, seeds, cfg)
    end_gap = np.linalg.norm(lines[0].position - lines[1].position)
    assert end_gap > 10 * eps
