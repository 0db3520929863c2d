"""The serial reference pinned byte for byte.

``integrate_single`` is the oracle every parallel algorithm is compared
against, so its curves may not move when its implementation does.  The
digests below were computed with the block-hopping reference that advanced
one curve through one block per kernel call; the pooled reference must
reproduce every status, step count, step size, time, final position and
vertex exactly.

Regenerate (only for a change that is *meant* to move the numerics) with
``PYTHONPATH=src python tests/test_integrate_single_pins.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.fields import SupernovaField, ThermalHydraulicsField
from repro.fields.library import SinkField
from repro.integrate import IntegratorConfig, integrate_single
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.seeding import circle_seeds, sparse_random_seeds

PINS = {
    'astro':
        '8d1202cba1c6f7c517b093055e0fedd61362e58a718d634605c1050911f5ae78',
    'thermal':
        'b1267bad36bc2bc98b8556942a3ed729b552533a3ee7feaf50f3cc20e50eb763',
    'sink':
        '9aed6b9a9eb7c8f3843d8ad81de00cba96c601dcd9d81ccfb9f23e39da238777',
}


def case(name: str) -> tuple:
    """``(field, decomposition, seeds, cfg)`` of one case."""
    if name == "astro":
        field = SupernovaField()
        seeds = sparse_random_seeds(
            field.domain.subbox((0.15, 0.15, 0.15), (0.85, 0.85, 0.85)),
            24, seed=42)
        return (field, Decomposition(field.domain, (4, 4, 4), (6, 6, 6)),
                seeds, IntegratorConfig(max_steps=120, rtol=1e-5, atol=1e-7))
    if name == "thermal":
        field = ThermalHydraulicsField()
        cy, cz = field.inlet_centers[0]
        return (field, Decomposition(field.domain, (4, 4, 4), (6, 6, 6)),
                circle_seeds((0.06, cy, cz), 0.02, 120),
                IntegratorConfig(max_steps=150, rtol=1e-4, atol=1e-6))
    assert name == "sink"
    field = SinkField(domain=Bounds.cube(-1.0, 1.0))
    seeds = np.array([[0.5, 0.4, 0.3], [-0.7, 0.2, 0.6], [0.1, -0.8, -0.5]])
    return (field, Decomposition(field.domain, (2, 2, 2), (5, 5, 5)), seeds,
            IntegratorConfig(max_steps=5000, min_speed=1e-4, h_max=0.1))


def digest(name: str) -> str:
    """sha256 over every curve's outcome and geometry, in seed order."""
    field, dec, seeds, cfg = case(name)
    h = hashlib.sha256()
    for line in integrate_single(field, dec, seeds, cfg):
        h.update(f"{line.sid}:{line.status.value}:{line.steps}:"
                 f"{line.h!r}:{line.time!r}:".encode())
        h.update(np.asarray(line.position, dtype=np.float64).tobytes())
        h.update(line.vertices().tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(PINS))
def test_serial_reference_is_pinned(name):
    assert digest(name) == PINS[name]


if __name__ == "__main__":
    for name in PINS:
        print(f"    {name!r}:\n        {digest(name)!r},")
