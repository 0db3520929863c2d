"""Property-based tests (hypothesis) on core data structures/invariants."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import static
from repro.core.base import owner_of_block, partition_contiguous
from repro.core.ondemand import seed_chunks
from repro.core.static import seed_claims
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import adapt_h
from repro.mesh.block import Block
from repro.storage.cache import LRUBlockCache
from tests.sampling import block_sample


# --------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------- #
@given(n_items=st.integers(1, 2000), n_parts=st.integers(1, 128))
def test_partition_exact_cover(n_items, n_parts):
    total = 0
    prev_end = 0
    for part in range(n_parts):
        r = partition_contiguous(n_items, n_parts, part)
        assert r.start == prev_end
        prev_end = r.stop
        total += len(r)
    assert prev_end == n_items
    assert total == n_items


@given(n_blocks=st.integers(1, 600), n_ranks=st.integers(1, 600))
def test_owner_is_consistent_with_partition(n_blocks, n_ranks):
    for bid in range(0, n_blocks, max(1, n_blocks // 17)):
        owner = owner_of_block(bid, n_blocks, n_ranks)
        assert bid in partition_contiguous(n_blocks, n_ranks, owner)


@st.composite
def seed_splits(draw):
    """A seed-block array with out-of-domain (-1) entries and a rank
    count up to the block count."""
    n_blocks = draw(st.integers(1, 64))
    seed_blocks = draw(st.lists(st.integers(-1, n_blocks - 1),
                                min_size=1, max_size=300))
    n_ranks = draw(st.integers(1, n_blocks))
    problem = SimpleNamespace(seed_blocks=np.array(seed_blocks),
                              n_seeds=len(seed_blocks), n_blocks=n_blocks)
    return problem, n_ranks


@given(split=seed_splits())
def test_static_claims_follow_the_per_seed_rule(split):
    problem, n_ranks = split
    with mock.patch.object(static, "owner_of_block",
                           wraps=owner_of_block) as counted:
        claims = seed_claims(problem, n_ranks)
    blocks = problem.seed_blocks.tolist()
    for rank in range(n_ranks):
        # Each rank's old scan: every seed, in sid order; out-of-domain
        # seeds go to rank 0.
        expect = [sid for sid, bid in enumerate(blocks)
                  if (rank == 0 if bid < 0
                      else owner_of_block(bid, problem.n_blocks, n_ranks)
                      == rank)]
        assert claims[rank] == expect
    # One ownership lookup per distinct in-domain block, never per rank.
    assert counted.call_count == len({b for b in blocks if b >= 0})


@given(split=seed_splits())
def test_ondemand_chunks_follow_the_per_seed_rule(split):
    problem, n_ranks = split
    chunks = seed_chunks(problem, n_ranks)
    blocks = problem.seed_blocks.tolist()
    # Block-grouped order: by initial block, then by sid (out-of-domain
    # first); rank r takes the r-th contiguous share of it.
    order = sorted(range(len(blocks)), key=lambda sid: (blocks[sid], sid))
    for rank in range(n_ranks):
        share = partition_contiguous(len(blocks), n_ranks, rank)
        assert chunks[rank].tolist() == order[share.start:share.stop]


# --------------------------------------------------------------------- #
# Bounds / decomposition
# --------------------------------------------------------------------- #
coords = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


@given(lo=st.tuples(coords, coords, coords),
       size=st.tuples(st.floats(0.1, 10), st.floats(0.1, 10),
                      st.floats(0.1, 10)),
       u=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
def test_bounds_normalize_roundtrip(lo, size, u):
    b = Bounds.from_arrays(lo, np.asarray(lo) + np.asarray(size))
    p = b.denormalized(np.asarray(u))
    assert b.contains(p)
    back = b.normalized(p)
    assert np.allclose(back, u, atol=1e-9)


@given(bx=st.integers(1, 6), by=st.integers(1, 6), bz=st.integers(1, 6),
       u=st.tuples(st.floats(0, 1, exclude_max=True),
                   st.floats(0, 1, exclude_max=True),
                   st.floats(0, 1, exclude_max=True)))
def test_locate_agrees_with_block_bounds(bx, by, bz, u):
    dec = Decomposition(Bounds.cube(0.0, 1.0), (bx, by, bz), (2, 2, 2))
    p = np.asarray(u)
    bid = int(dec.locate(p))
    assert bid >= 0
    assert dec.info(bid).bounds.contains(p)


# --------------------------------------------------------------------- #
# Interpolation (the production sampler over a block of the unit cube)
# --------------------------------------------------------------------- #
def _unit_block(data):
    nx, ny, nz = data.shape[:3]
    dec = Decomposition(Bounds.cube(0.0, 1.0), (1, 1, 1),
                        (nx - 1, ny - 1, nz - 1))
    return Block(info=dec.info(0), data=data)


@given(seed=st.integers(0, 10_000),
       k=st.integers(1, 20))
@settings(max_examples=40)
def test_trilinear_within_data_range(seed, k):
    rng = np.random.default_rng(seed)
    data = rng.uniform(-3, 3, size=(4, 5, 3, 3))
    pts = rng.uniform(size=(k, 3))
    out = block_sample(_unit_block(data), pts)
    assert np.all(out >= data.min(axis=(0, 1, 2)) - 1e-9)
    assert np.all(out <= data.max(axis=(0, 1, 2)) + 1e-9)
    assert np.all(np.isfinite(out))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30)
def test_trilinear_reproduces_affine(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.uniform(-2, 2, size=(4, 3))
    xs = np.linspace(0, 1, 4)
    gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij")
    data = (a * gx[..., None] + b * gy[..., None] + c * gz[..., None] + d)
    pts = rng.uniform(size=(10, 3))
    expect = (a * pts[:, :1] + b * pts[:, 1:2] + c * pts[:, 2:] + d)
    assert np.allclose(block_sample(_unit_block(data), pts), expect,
                       atol=1e-10)


# --------------------------------------------------------------------- #
# Step controller
# --------------------------------------------------------------------- #
@given(h=st.floats(1e-8, 0.2), err=st.floats(0.0, 1e6))
def test_adapt_h_always_within_bounds(h, err):
    cfg = IntegratorConfig()
    out = adapt_h(np.array([h]), np.array([err]), cfg)
    assert cfg.h_min <= out[0] <= cfg.h_max
    assert np.isfinite(out[0])


@given(h=st.floats(1e-6, 0.1))
def test_adapt_h_monotone_in_error(h):
    cfg = IntegratorConfig()
    errs = np.array([0.01, 0.5, 2.0, 50.0])
    out = adapt_h(np.full(4, h), errs, cfg)
    assert np.all(np.diff(out) <= 1e-15)  # larger error -> smaller h


# --------------------------------------------------------------------- #
# LRU cache
# --------------------------------------------------------------------- #
class _FakeBlock:
    def __init__(self, bid):
        self.block_id = bid


@given(capacity=st.integers(1, 8),
       ops=st.lists(st.integers(0, 15), min_size=1, max_size=60))
def test_lru_invariants(capacity, ops):
    cache = LRUBlockCache(capacity)
    for bid in ops:
        if cache.get(bid) is None:
            cache.put(_FakeBlock(bid))  # type: ignore[arg-type]
        # Invariants after every operation:
        assert len(cache) <= capacity
        assert cache.loads - cache.purges == len(cache)
        assert 0.0 <= cache.block_efficiency <= 1.0
        ids = list(cache)
        assert len(ids) == len(set(ids))


@given(capacity=st.integers(1, 6),
       ops=st.lists(st.integers(0, 9), min_size=5, max_size=40))
def test_lru_most_recent_always_resident(capacity, ops):
    cache = LRUBlockCache(capacity)
    for bid in ops:
        if cache.get(bid) is None:
            cache.put(_FakeBlock(bid))  # type: ignore[arg-type]
        assert bid in cache  # the just-touched block is never evicted
