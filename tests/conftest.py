"""Shared fixtures: small, fast problem instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import clear_cache
from repro.core.problem import ProblemSpec
from repro.fields import (
    RigidRotationField,
    SupernovaField,
    ThermalHydraulicsField,
    TokamakField,
    UniformField,
)
from repro.integrate.config import IntegratorConfig
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.seeding import sparse_random_seeds
from repro.sim.machine import MachineSpec


@pytest.fixture(autouse=True)
def fresh_run_memo():
    """Every test starts and ends with an empty run memo
    (``repro.analysis.experiments``), so no test reads another's runs."""
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def unit_bounds() -> Bounds:
    return Bounds.cube(0.0, 1.0)


@pytest.fixture
def small_decomposition(unit_bounds) -> Decomposition:
    return Decomposition(unit_bounds, (2, 2, 2), (4, 4, 4))


@pytest.fixture
def rotation_field() -> RigidRotationField:
    return RigidRotationField()


@pytest.fixture
def uniform_field() -> UniformField:
    return UniformField(velocity=(1.0, 0.0, 0.0))


@pytest.fixture
def small_problem() -> ProblemSpec:
    """A tiny supernova problem all algorithm tests share."""
    field = SupernovaField()
    seeds = sparse_random_seeds(
        field.domain.subbox((0.15, 0.15, 0.15), (0.85, 0.85, 0.85)),
        24, seed=42)
    return ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=120, rtol=1e-5, atol=1e-7),
        name="small-supernova")


@pytest.fixture
def small_machine() -> MachineSpec:
    return MachineSpec(n_ranks=8)
