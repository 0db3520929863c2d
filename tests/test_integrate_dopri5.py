"""Tests of the Dormand-Prince integrator against analytic solutions."""

import numpy as np
import pytest

from repro.fields.library import (
    RigidRotationField,
    SaddleField,
    SourceField,
    UniformField,
)
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5, adapt_h


def step_to_time(integrator, field, y0, t_end, cfg):
    """Drive a single particle to t_end with adaptive control."""
    pos = np.array([y0], dtype=np.float64)
    t = 0.0
    h = np.array([cfg.h_init])
    while t < t_end - 1e-12:
        h[0] = min(h[0], t_end - t)
        new_pos, err = integrator.attempt_steps(field.evaluate, pos, h)
        if err[0] <= 1.0:
            pos = new_pos
            t += h[0]
        h = adapt_h(h, err, cfg)
    return pos[0]


@pytest.fixture
def cfg():
    return IntegratorConfig(rtol=1e-8, atol=1e-10, h_init=0.01,
                            h_max=0.1)


def test_exponential_growth_exact(cfg):
    """Source field: y' = y, solution y0 * e^t."""
    f = SourceField(strength=1.0)
    y = step_to_time(Dopri5(cfg.rtol, cfg.atol), f,
                     [0.1, 0.05, 0.0], 1.0, cfg)
    assert np.allclose(y, np.array([0.1, 0.05, 0.0]) * np.e, rtol=1e-7)


def test_rotation_returns_after_full_period(cfg):
    f = RigidRotationField(omega=1.0)
    y0 = [0.5, 0.0, 0.25]
    y = step_to_time(Dopri5(cfg.rtol, cfg.atol), f, y0,
                     2.0 * np.pi, cfg)
    assert np.allclose(y, y0, atol=1e-6)


def test_saddle_solution(cfg):
    f = SaddleField(expand=1.0, contract=1.0)
    y = step_to_time(Dopri5(cfg.rtol, cfg.atol), f,
                     [0.1, 0.2, 0.3], 0.5, cfg)
    expect = np.array([0.1 * np.exp(0.5), 0.2 * np.exp(-0.5),
                       0.3 * np.exp(-0.5)])
    assert np.allclose(y, expect, rtol=1e-7)


def test_uniform_field_is_exact_per_step():
    f = UniformField(velocity=(1.0, 2.0, 3.0))
    d = Dopri5()
    pos = np.zeros((4, 3))
    h = np.full(4, 0.25)
    new_pos, err = d.attempt_steps(f.evaluate, pos, h)
    assert np.allclose(new_pos, 0.25 * np.array([1.0, 2.0, 3.0]))
    assert np.all(err < 1e-9)


def test_error_estimate_drives_rejection():
    """A stiff nonlinear field at a huge step must report err > 1."""
    class Stiff:
        def evaluate(self, pts):
            return np.sin(50.0 * pts) * 10.0

    d = Dopri5(rtol=1e-10, atol=1e-12)
    pos = np.array([[0.1, 0.2, 0.3]])
    _, err = d.attempt_steps(Stiff().evaluate, pos, np.array([0.5]))
    assert err[0] > 1.0


def test_batch_matches_individual():
    """Batched stepping must equal stepping each particle alone."""
    f = RigidRotationField()
    d = Dopri5()
    rng = np.random.default_rng(0)
    pos = rng.uniform(-0.5, 0.5, size=(8, 3))
    h = rng.uniform(0.01, 0.1, size=8)
    batch_pos, batch_err = d.attempt_steps(f.evaluate, pos, h)
    for i in range(8):
        p1, e1 = d.attempt_steps(f.evaluate, pos[i:i + 1], h[i:i + 1])
        assert np.allclose(p1[0], batch_pos[i], atol=1e-15)
        assert np.allclose(e1[0], batch_err[i], atol=1e-15)


def test_fifth_order_convergence():
    """Halving h must cut the local error by ~2^5."""
    class Nonlinear:
        def evaluate(self, pts):
            return np.stack([pts[:, 1] ** 2 + 1.0,
                             -pts[:, 0] * pts[:, 1],
                             pts[:, 2] * 0.0 + np.cos(pts[:, 0])], axis=1)

    f = Nonlinear()
    d = Dopri5()

    def one_step_error(h):
        y0 = np.array([[0.3, 0.4, 0.1]])
        coarse, _ = d.attempt_steps(f.evaluate, y0, np.array([h]))
        fine = y0
        for _ in range(64):
            fine, _ = d.attempt_steps(f.evaluate, fine,
                                      np.array([h / 64]))
        return np.linalg.norm(coarse - fine)

    e1 = one_step_error(0.2)
    e2 = one_step_error(0.1)
    ratio = e1 / e2
    assert 15.0 < ratio < 150.0  # ~2^5 = 32 with generous slack


def test_adapt_h_grows_and_shrinks():
    cfg = IntegratorConfig()
    h = np.array([0.01, 0.01])
    err = np.array([1e-6, 100.0])
    new_h = adapt_h(h, err, cfg)
    assert new_h[0] > h[0]  # tiny error -> grow
    assert new_h[1] < h[1]  # big error -> shrink
    assert np.all(new_h <= cfg.h_max)
    assert np.all(new_h >= cfg.h_min)


def test_shape_validation():
    d = Dopri5()
    f = UniformField().evaluate
    with pytest.raises(ValueError):
        d.attempt_steps(f, np.zeros(3), np.zeros(1))
    with pytest.raises(ValueError):
        d.attempt_steps(f, np.zeros((2, 3)), np.zeros(3))


def test_invalid_tolerances():
    with pytest.raises(ValueError):
        Dopri5(rtol=0.0)
    with pytest.raises(ValueError):
        Dopri5(atol=-1.0)

