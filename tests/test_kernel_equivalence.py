"""Bit-exactness guards for the fused hot-path kernels.

The advection compute stack (stacked :class:`BlockPool`, fused
:class:`PoolSampler`, workspace DOPRI5, the small-batch scalar rounds)
is pure optimization: every simulated result must be bit-for-bit what
the straightforward NumPy implementation produces.  These tests pin that
contract from three angles:

* a **golden-trajectory** fixture recorded before the overhaul,
* the fused sampler against a **naive reference** implementation,
* the **scalar** small-batch path against the array path.

Regenerating ``tests/data/golden_pool_trajectories.npz`` (only needed if
the *simulated* semantics intentionally change) re-runs the cases
below at the same configs and stores seeds plus final state and
geometry; see ``_replay``'s driver loop for the exact schedule::

    PYTHONPATH=src python tests/data/make_golden_pool_trajectories.py
"""

import numpy as np
import pytest

import repro.integrate.pooled as pooled_mod
from repro.fields import SupernovaField, sample_field
from repro.fields.library import RigidRotationField
from repro.integrate.config import IntegratorConfig
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import make_streamlines
from repro.mesh.block import Block
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden_pool_trajectories.npz"

CASES = {
    "rot_dopri5": dict(
        field="rot", counts=(4, 4, 4), dims=(8, 8, 8),
        cfg=IntegratorConfig(max_steps=220, h_max=0.03,
                             rtol=1e-5, atol=1e-7)),
    "astro_dopri5": dict(
        field="astro", counts=(8, 8, 8), dims=(8, 8, 8),
        cfg=IntegratorConfig(max_steps=300, h_max=0.045,
                             rtol=1e-5, atol=1e-7)),
}


def _make_field(name):
    if name == "rot":
        return RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    return SupernovaField()


def _replay(case, seeds):
    """Advance ``seeds`` to completion; returns lines + final state."""
    field = _make_field(case["field"])
    dec = Decomposition(field.domain, case["counts"], case["dims"])
    blocks = list(sample_field(field, dec).values())
    pool = BlockPool(blocks)
    lines = make_streamlines(seeds)
    for line in lines:
        line.block_id = int(dec.locate(line.position))
    active = list(lines)
    for _ in range(400):
        if not active:
            break
        res = advance_pool(active, pool, field.domain, dec, case["cfg"],
                           round_limit=24)
        active = res.in_pool + list(res.exited)
    return lines


def _state(lines):
    return {
        "status": np.array([l.status.value for l in lines]),
        "steps": np.array([l.steps for l in lines]),
        "h": np.array([l.h for l in lines]),
        "time": np.array([l.time for l in lines]),
        "pos": np.stack([l.position for l in lines]),
        "verts": np.concatenate([l.vertices() for l in lines]),
        "vcounts": np.array([l.n_vertices for l in lines]),
    }


# --------------------------------------------------------------------- #
# Golden trajectories (recorded with the pre-overhaul kernels)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectories_bit_identical(name):
    gold = np.load(GOLDEN)
    lines = _replay(CASES[name], gold[f"{name}_seeds"])
    for key, val in _state(lines).items():
        ref = gold[f"{name}_{key}"]
        assert ref.shape == val.shape, (name, key)
        assert np.array_equal(ref, val), \
            f"{name}:{key} diverged from pre-overhaul kernels"


# --------------------------------------------------------------------- #
# Fused sampler vs naive reference
# --------------------------------------------------------------------- #
def _naive_sample(pool, slots, pts):
    """The original straight-line trilinear implementation."""
    nx, ny, nz = pool.dims
    g = (pts - pool.lo[slots]) * pool.scale[slots]
    g = np.minimum(g, pool.node_max)
    g = np.maximum(g, 0.0)
    icell = g.astype(np.int64)
    icell = np.minimum(
        icell, np.array([nx - 2, ny - 2, nz - 2], dtype=np.int64))
    t = g - icell
    s = 1.0 - t
    sx, sy, sz = s[:, 0], s[:, 1], s[:, 2]
    tx, ty, tz = t[:, 0], t[:, 1], t[:, 2]
    # ((x * y) * z) grouping, corners in z-fastest order.
    w = np.stack([
        (sx * sy) * sz, (sx * sy) * tz, (sx * ty) * sz, (sx * ty) * tz,
        (tx * sy) * sz, (tx * sy) * tz, (tx * ty) * sz, (tx * ty) * tz,
    ], axis=1)
    base = (icell[:, 0] * (ny * nz) + icell[:, 1] * nz + icell[:, 2]
            + pool.slot_base[slots])
    idx = base[:, None] + pool.offsets[None, :]
    corners = pool.flat[idx]
    return np.einsum("ke,kec->kc", w, corners)


@pytest.fixture(scope="module")
def sampler_pool():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (5, 5, 5))
    pool = BlockPool(list(sample_field(field, dec).values()))
    return dec, pool


def _same_bytes(a, b):
    """Bit-for-bit equality; ``np.array_equal`` takes ``-0.0 == 0.0``."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1, 2, 4, 33, 200, 880])
def test_fused_sampler_matches_naive(sampler_pool, k):
    dec, pool = sampler_pool
    rng = np.random.default_rng(k)
    pts = rng.uniform(-0.99, 0.99, size=(k, 3))
    slots = np.array([pool.slot_of[int(b)]
                      for b in dec.locate_many(pts)], dtype=np.int64)
    f = pool.sampler().bind(slots)
    assert _same_bytes(f(pts), _naive_sample(pool, slots, pts))


@pytest.mark.parametrize("k", [1, 5, 64])
def test_fused_sampler_matches_naive_on_negative_zero_block(sampler_pool, k):
    """A block whose every node value is ``-0.0``: each weighted corner is
    ``-0.0``, so the sign of the result shows where the corner sum
    starts (the reference's einsum adds them to ``+0.0``)."""
    dec, pool = sampler_pool
    zero = Block(dec.info(0), np.full(pool.blocks[0].data.shape, -0.0))
    mixed = BlockPool([zero, pool.blocks[1]])
    rng = np.random.default_rng(k + 7)
    pts = rng.uniform(-0.99, 0.99, size=(k, 3))
    slots = np.arange(k) % 2  # the -0.0 block first
    f = mixed.sampler().bind(slots)
    assert _same_bytes(f(pts), _naive_sample(mixed, slots, pts))


def test_fused_sampler_degenerate_and_boundary_points(sampler_pool):
    """Nodes, faces, corners, and clipped out-of-block points.

    These land exactly on cell boundaries (degenerate weights 0/1) and
    past the clip limits, the paths where truncation vs floor and clip
    ordering could silently diverge.
    """
    dec, pool = sampler_pool
    pts = np.array([
        [0.0, 0.0, 0.0],        # interior block corner (face ownership)
        [-1.0, -1.0, -1.0],     # domain corner
        [1.0, 1.0, 1.0],        # top domain corner (clamped last cell)
        [0.5, 0.0, -0.25],      # on an interior face
        [-0.5, -0.5, -0.5],     # block center, exact node
        [0.999999999, 0.0, 0.0],
    ])
    slots = np.array([pool.slot_of[int(b)]
                      for b in dec.locate_many(pts)], dtype=np.int64)
    f = pool.sampler().bind(slots)
    assert _same_bytes(f(pts), _naive_sample(pool, slots, pts))
    # Points outside their bound block's box: the sampler clips into the
    # block (same value as the reference clip).
    far = pts + 3.7
    assert _same_bytes(f(far), _naive_sample(pool, slots, far))


def test_sampler_out_buffer_matches_fresh(sampler_pool):
    dec, pool = sampler_pool
    rng = np.random.default_rng(99)
    pts = rng.uniform(-0.9, 0.9, size=(6, 3))
    slots = np.array([pool.slot_of[int(b)]
                      for b in dec.locate_many(pts)], dtype=np.int64)
    f = pool.sampler().bind(slots)
    buf = np.full((6, 3), np.nan)
    res = f(pts, out=buf)
    assert res is buf
    assert _same_bytes(buf, f(pts))


def test_sampler_workspace_tracks_largest_batch(sampler_pool):
    """Every batch size's workspace is a view into one set of buffers:
    binding k = 1..300 in turn holds about what binding 300 once does,
    not one workspace per distinct k."""
    _, pool = sampler_pool
    f = pool.sampler()
    for k in range(1, 301):
        f.bind(np.zeros(k, dtype=np.int64))
    largest = pool.sampler().bind(np.zeros(300, dtype=np.int64)).nbytes
    assert 0 < f.nbytes <= 2 * largest


# --------------------------------------------------------------------- #
# Scalar small-batch path vs array path
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("k", [1, 2, 4])
def test_scalar_rounds_match_array_path(monkeypatch, k):
    rng = np.random.default_rng(k + 40)
    seeds = rng.uniform(-0.9, 0.9, size=(k, 3))
    case = CASES["astro_dopri5"]
    with_scalar = _state(_replay(case, seeds))
    monkeypatch.setattr(pooled_mod, "_SCALAR_MAX_K", -1)
    without_scalar = _state(_replay(case, seeds))
    for key in with_scalar:
        assert np.array_equal(with_scalar[key], without_scalar[key]), key


# --------------------------------------------------------------------- #
# Batched locate
# --------------------------------------------------------------------- #
def test_locate_many_matches_scalar_locate():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (3, 2, 4), (4, 4, 4))
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.4, 1.4, size=(64, 3))  # includes outside points
    batched = dec.locate_many(pts)
    for p, bid in zip(pts, batched):
        assert int(dec.locate(p)) == int(bid)


def test_locate_many_boundaries():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (4, 4, 4))
    pts = np.array([
        [0.0, 0.0, 0.0],     # interior faces -> higher-indexed block
        [1.0, 1.0, 1.0],     # top corner stays in the last block
        [-1.0, -1.0, -1.0],  # bottom corner in block 0
        [1.0000001, 0.0, 0.0],  # outside
    ])
    bids = dec.locate_many(pts)
    assert bids[0] == 7
    assert bids[1] == 7
    assert bids[2] == 0
    assert bids[3] == -1
