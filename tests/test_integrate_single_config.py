"""Tests of the serial reference integrator and IntegratorConfig."""

import numpy as np
import pytest

from repro.fields.library import (
    RigidRotationField,
    SinkField,
    UniformField,
)
from repro.integrate.config import IntegratorConfig
from repro.integrate.single import integrate_single
from repro.integrate.streamline import Status
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition


# --------------------------------------------------------------------- #
# IntegratorConfig
# --------------------------------------------------------------------- #
def test_config_defaults_valid():
    cfg = IntegratorConfig()
    assert cfg.h_min <= cfg.h_init <= cfg.h_max


@pytest.mark.parametrize("kw", [
    dict(rtol=0.0),
    dict(atol=-1.0),
    dict(h_min=0.1, h_init=0.01),
    dict(h_init=1.0, h_max=0.5),
    dict(min_speed=-1.0),
    dict(max_steps=0),
    dict(shrink_limit=1.5),
    dict(grow_limit=0.5),
    dict(safety=0.0),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        IntegratorConfig(**kw)


def test_with_max_steps():
    cfg = IntegratorConfig().with_max_steps(7)
    assert cfg.max_steps == 7


# --------------------------------------------------------------------- #
# integrate_single
# --------------------------------------------------------------------- #
def test_uniform_crossing_all_blocks():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (4, 1, 1), (4, 4, 4))
    lines = integrate_single(field, dec, np.array([[0.01, 0.5, 0.5]]),
                             IntegratorConfig(max_steps=2000, h_max=0.01))
    line = lines[0]
    assert line.status is Status.OUT_OF_BOUNDS
    verts = line.vertices()
    # The curve passed through all 4 blocks.
    bids = set(int(b) for b in dec.locate(verts) if b >= 0)
    assert bids == {0, 1, 2, 3}
    # Straight line: y and z never change.
    assert np.allclose(verts[:, 1], 0.5)
    assert np.allclose(verts[:, 2], 0.5)


def test_out_of_domain_seed_terminates():
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (4, 4, 4))
    lines = integrate_single(field, dec, np.array([[2.0, 2.0, 2.0]]))
    assert lines[0].status is Status.OUT_OF_BOUNDS
    assert lines[0].steps == 0


def test_sink_reaches_critical_point():
    field = SinkField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (5, 5, 5))
    lines = integrate_single(
        field, dec, np.array([[0.5, 0.4, 0.3]]),
        IntegratorConfig(max_steps=5000, min_speed=1e-4, h_max=0.1))
    assert lines[0].status is Status.ZERO_VELOCITY


def test_shared_block_cache_reused():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (4, 4, 4))
    cache = {}
    integrate_single(field, dec, np.array([[0.5, 0.0, 0.0]]),
                     IntegratorConfig(max_steps=50, h_max=0.05),
                     blocks=cache)
    n_first = len(cache)
    assert n_first >= 1
    # Second call with the same cache must not regenerate those blocks.
    before = {k: id(v) for k, v in cache.items()}
    integrate_single(field, dec, np.array([[0.5, 0.0, 0.0]]),
                     IntegratorConfig(max_steps=50, h_max=0.05),
                     blocks=cache)
    for k, i in before.items():
        assert id(cache[k]) == i


def test_results_in_seed_order():
    field = UniformField(velocity=(1.0, 0.0, 0.0),
                         domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (4, 4, 4))
    seeds = np.array([[0.1, 0.2, 0.2], [0.9, 0.9, 0.9], [0.4, 0.5, 0.6]])
    lines = integrate_single(field, dec, seeds)
    assert [l.sid for l in lines] == [0, 1, 2]
    for l, s in zip(lines, seeds):
        assert np.allclose(l.seed, s)
