"""Tests of ProblemSpec construction and derived properties."""

import numpy as np
import pytest

import repro
from repro.core.problem import ProblemSpec
from repro.fields import TokamakField, UniformField
from repro.mesh.bounds import Bounds
from repro.storage.costmodel import DataCostModel


def make(seeds=None, **kw):
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    if seeds is None:
        seeds = np.array([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]])
    defaults = dict(field=field, seeds=seeds,
                    blocks_per_axis=(2, 2, 2), cells_per_block=(4, 4, 4))
    defaults.update(kw)
    return ProblemSpec(**defaults)


def test_seed_validation():
    with pytest.raises(ValueError):
        make(seeds=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        make(seeds=np.zeros((3, 2)))


def test_seeds_are_frozen_copies():
    src = np.array([[0.5, 0.5, 0.5]])
    p = make(seeds=src)
    src[0, 0] = 0.9
    assert p.seeds[0, 0] == 0.5  # copied
    with pytest.raises(ValueError):
        p.seeds[0, 0] = 0.1  # read-only


def test_derived_decomposition_cached():
    p = make()
    assert p.decomposition is p.decomposition
    assert p.n_blocks == 8


def test_seed_blocks():
    p = make(seeds=np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9],
                             [5.0, 5.0, 5.0]]))
    bids = p.seed_blocks
    assert bids[0] == 0
    assert bids[1] == 7
    assert bids[2] == -1


def test_with_seeds_replaces_only_seeds():
    p = make()
    q = p.with_seeds(np.array([[0.2, 0.2, 0.2]]))
    assert q.n_seeds == 1
    assert q.blocks_per_axis == p.blocks_per_axis
    assert q.field is p.field


def test_describe_mentions_key_facts():
    field = TokamakField()
    p = ProblemSpec(field=field,
                    seeds=np.array([[field.major_radius, 0.0, 0.0]]),
                    blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
                    name="demo")
    text = p.describe()
    assert "demo" in text
    assert "64 blocks" in text
    assert "6x6x6 cells" in text
    assert "max_steps=" in text


def test_cost_model_plumbed():
    cm = DataCostModel(modelled_cells_per_block=500)
    p = make(cost_model=cm)
    assert p.cost_model.block_nbytes == 500 * 12
