"""Smoke tests guarding the example scripts.

Most full example runs take minutes; these tests import every script in
``examples/`` (so API drift breaks the suite, not the demo) and exercise
their helper logic at miniature scale.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", [path.stem for path in sorted(EXAMPLES.glob("*.py"))])
def test_example_imports(name):
    module = load(name)
    assert hasattr(module, "main")


def test_tokamak_puncture_helper():
    tok = load("tokamak_fieldlines")
    from repro.integrate.streamline import Streamline

    th = np.linspace(0.1, 4 * np.pi + 0.1, 200)
    verts = np.stack([0.5 * np.cos(th), 0.5 * np.sin(th),
                      np.zeros_like(th)], axis=1)
    line = Streamline(sid=0, seed=verts[0])
    line.append_segment(verts)
    p = tok.poincare_punctures(line)
    # Two revolutions -> two positive-x crossings of y = 0.
    assert len(p) == 2
    assert np.allclose(p[:, 0], 0.5, atol=1e-3)  # R at crossing


def test_custom_tutorial_field_contract():
    mod = load("custom_field_tutorial")
    field = mod.SwirlingJetField()
    rng = np.random.default_rng(0)
    pts = field.domain.denormalized(rng.uniform(size=(20, 3)))
    v = field.evaluate(pts)
    assert v.shape == (20, 3)
    assert np.all(np.isfinite(v))
    # Upward jet at the core.
    assert field.evaluate(np.array([[0.0, 0.0, 0.0]]))[0, 2] > 1.0
