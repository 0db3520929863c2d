"""Regenerate ``golden_pool_trajectories.npz``.

Records reference trajectories for ``tests/test_kernel_equivalence.py``.
Only rerun this when the *simulated* advection semantics intentionally
change (new clipping rules, a different tableau, ...) — never to paper
over an unintended numeric drift, which is exactly what the golden test
exists to catch.  The committed fixture was produced by the
pre-kernel-overhaul implementation.

    PYTHONPATH=src python tests/data/make_golden_pool_trajectories.py
"""

import sys
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # running as a script
    _src = Path(__file__).resolve().parents[2] / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.fields import SupernovaField, sample_field
from repro.fields.library import RigidRotationField
from repro.integrate.config import IntegratorConfig
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import make_streamlines
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition

OUT = Path(__file__).parent / "golden_pool_trajectories.npz"


def record(name, field, counts, dims, cfg, seeds, store):
    dec = Decomposition(field.domain, counts, dims)
    pool = BlockPool(list(sample_field(field, dec).values()))
    lines = make_streamlines(seeds)
    for line in lines:
        line.block_id = int(dec.locate(line.position))
    active = list(lines)
    for _ in range(400):
        if not active:
            break
        res = advance_pool(active, pool, field.domain, dec, cfg,
                           round_limit=24)
        active = res.in_pool + list(res.exited)
    store[f"{name}_seeds"] = seeds
    store[f"{name}_status"] = np.array([l.status.value for l in lines])
    store[f"{name}_steps"] = np.array([l.steps for l in lines])
    store[f"{name}_h"] = np.array([l.h for l in lines])
    store[f"{name}_time"] = np.array([l.time for l in lines])
    store[f"{name}_pos"] = np.stack([l.position for l in lines])
    store[f"{name}_verts"] = np.concatenate(
        [l.vertices() for l in lines])
    store[f"{name}_vcounts"] = np.array([l.n_vertices for l in lines])
    print(f"{name}: {len(lines)} lines, "
          f"{store[f'{name}_verts'].shape[0]} vertices")


def _seeds(name, rng, shape, span):
    """Reuse the committed fixture's seed points when present, so a
    regeneration with unchanged semantics reproduces the same data."""
    if OUT.exists():
        with np.load(OUT) as old:
            key = f"{name}_seeds"
            if key in old.files:
                return old[key]
    return rng.uniform(-span, span, size=shape)


def main() -> int:
    store = {}
    rot = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    astro = SupernovaField()
    rng = np.random.default_rng(2026)
    record("rot_dopri5", rot, (4, 4, 4), (8, 8, 8),
           IntegratorConfig(max_steps=220, h_max=0.03,
                            rtol=1e-5, atol=1e-7),
           _seeds("rot_dopri5", rng, (17, 3), 0.9), store)
    record("astro_dopri5", astro, (8, 8, 8), (8, 8, 8),
           IntegratorConfig(max_steps=300, h_max=0.045,
                            rtol=1e-5, atol=1e-7),
           _seeds("astro_dopri5", rng, (23, 3), 0.85), store)
    np.savez_compressed(OUT, **store)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
