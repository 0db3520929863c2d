"""The paper's three application problems, at reproduction scale.

Scale substitutions (DESIGN.md §2/§7): the paper uses 512 blocks of 1M
cells and 20k/10k/4k/22k seed sets on up to 512 Cray XT5 cores.  We keep
the 512-block decomposition and the full simulated rank counts, sample each
block at reduced resolution, scale seed counts by ~10x down (except the
thermal dense case, which must stay large enough to exhaust one rank's
memory, reproducing the §5.3 Static-Allocation OOM), and price all I/O,
memory, and messages at full scale via :class:`DataCostModel`.

``scale`` multiplies seed counts for quick tests (e.g. ``scale=0.1`` in CI).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Tuple

import numpy as np

from repro.core import driver
from repro.core.problem import ProblemSpec
from repro.core.results import RunResult
from repro.fields import (
    SupernovaField,
    ThermalHydraulicsField,
    TokamakField,
)
from repro.integrate.bank import TrajectoryBank
from repro.integrate.config import IntegratorConfig
from repro.seeding import (
    circle_seeds,
    dense_cluster_seeds,
    grid_seeds,
    sparse_random_seeds,
)
from repro.sim.machine import MachineSpec

#: Datasets of the evaluation, §3.2 / §5.1-5.3.
DATASETS: Tuple[str, ...] = ("astro", "fusion", "thermal")
#: Seeding regimes, §3.1.
SEEDINGS: Tuple[str, ...] = ("sparse", "dense")

#: Simulated processor counts swept in the figures.  The paper sweeps
#: 64..512 cores with 10x our seed counts; sweeping 8..64 ranks keeps the
#: seeds-per-slave density — which drives every load-balancing dynamic —
#: in the paper's range (astro: 133..16 per slave vs the paper's 312..40)
#: while keeping pure-Python runs tractable.
RANK_COUNTS: Tuple[int, ...] = (16, 32, 128)

#: Reproduction-scale seed counts (paper-scale in parentheses).
SEED_COUNTS: Dict[Tuple[str, str], int] = {
    ("astro", "sparse"): 2000,     # (20,000)
    ("astro", "dense"): 2000,      # (20,000)
    ("fusion", "sparse"): 600,     # (10,000)
    ("fusion", "dense"): 600,      # (10,000)
    ("thermal", "sparse"): 512,    # (4,096 on a 16^3 grid; we use 8^3)
    ("thermal", "dense"): 8800,    # (22,000 around one inlet)
}

_BLOCKS = (8, 8, 8)            # 512 blocks, as in the scaling studies
_CELLS = (8, 8, 8)             # sampled resolution (modelled: 100^3)

# Two calibration constraints hide in these budgets (DESIGN.md §7):
# h_max is capped at ~1/8 of a block edge so curves take several steps per
# block visit (as at the paper's 100^3-cells-per-block resolution), and
# per-dataset step budgets reproduce each dataset's *transport character*:
# astro and thermal curves visit a handful of blocks before terminating
# (which is what lets the paper's hybrid achieve near-ideal I/O and ~20x
# less communication simultaneously), while fusion field lines orbit the
# torus indefinitely, crossing blocks hundreds of times (which is what
# makes Static Allocation's communication explode in Figure 11).
_INTEG = {
    "astro": IntegratorConfig(max_steps=300, h_max=0.045,
                              rtol=1e-5, atol=1e-7),
    "fusion": IntegratorConfig(max_steps=250, h_max=0.045,
                               rtol=1e-5, atol=1e-7),
    "thermal": IntegratorConfig(max_steps=300, h_max=0.02,
                                rtol=1e-5, atol=1e-7),
}
# Paper §5.3: "we only integrated the streamlines a short distance".
_INTEG_THERMAL_DENSE = IntegratorConfig(max_steps=180, h_max=0.02,
                                        rtol=1e-5, atol=1e-7)


def scenario_machine(n_ranks: int) -> MachineSpec:
    """The JaguarPF-like machine used for all figure reproductions.

    The cache bound (the paper's "user defined upper bound") is set so a
    rank can hold its Static-Allocation ownership share at every swept
    rank count (512/16 = 32 blocks) but *not* the full traversal footprint
    of a Load-On-Demand rank — the regime in which the paper's
    block-efficiency and I/O figures were taken.  The filesystem is
    priced so one block read costs ~0.12 s, a Lustre-order figure that
    keeps redundant I/O from being free.
    """
    return MachineSpec(n_ranks=n_ranks, cache_blocks=48,
                       io_bandwidth=1.0e8)


@lru_cache(maxsize=None)
def _dataset_field(dataset: str):
    """One shared field instance per dataset.

    Fields are immutable after construction (fixed parameters plus
    RNG-derived arrays seeded by constants), so sharing one instance
    across every problem built in a process is exact — and it lets a
    persistent sweep worker keep the field (and, via the driver's
    store memo keyed on field identity, the decoded block store) warm
    across runs instead of rebuilding them per spec.
    """
    if dataset == "astro":
        return SupernovaField()
    if dataset == "fusion":
        return TokamakField()
    return ThermalHydraulicsField()


def make_problem(dataset: str, seeding: str,
                 scale: float = 1.0) -> ProblemSpec:
    """Build one of the six evaluation problems.

    Parameters
    ----------
    dataset:
        "astro", "fusion", or "thermal".
    seeding:
        "sparse" or "dense".
    scale:
        Seed-count multiplier for quick runs (1.0 = reproduction scale).
    """
    if dataset not in DATASETS:
        raise ValueError(f"unknown dataset {dataset!r}; "
                         f"expected one of {DATASETS}")
    if seeding not in SEEDINGS:
        raise ValueError(f"unknown seeding {seeding!r}; "
                         f"expected one of {SEEDINGS}")
    if not 0 < scale < float("inf"):
        raise ValueError(f"scale must be a finite number > 0, got {scale}")
    count = max(4, int(round(SEED_COUNTS[(dataset, seeding)] * scale)))
    integ = _INTEG[dataset]

    field = _dataset_field(dataset)
    if dataset == "astro":
        if seeding == "sparse":
            seeds = sparse_random_seeds(field.domain, count, seed=101)
        else:
            # Dense cluster just outside the proto-neutron star (Fig. 1's
            # seeding), spanning a handful of blocks.
            seeds = dense_cluster_seeds((0.30, 0.30, 0.0), 0.12, count,
                                        seed=102, clip_bounds=field.domain)
    elif dataset == "fusion":
        if seeding == "sparse":
            seeds = sparse_random_seeds(field.domain, count, seed=201)
        else:
            # Dense cluster on the magnetic axis: curves wind around the
            # torus and fill it regardless (§5.2).
            seeds = dense_cluster_seeds((field.major_radius, 0.0, 0.0),
                                        0.08, count, seed=202,
                                        clip_bounds=field.domain)
    else:
        if seeding == "sparse":
            side = max(2, int(round(np.cbrt(count))))
            seeds = grid_seeds(field.domain, (side, side, side))
        else:
            # The stream-surface replica: a circle immediately around one
            # inlet (§3.2 / §5.3).
            cy, cz = field.inlet_centers[0]
            seeds = circle_seeds((0.06, cy, cz), 0.03, count)
            integ = _INTEG_THERMAL_DENSE

    return ProblemSpec(field=field, seeds=seeds,
                       blocks_per_axis=_BLOCKS, cells_per_block=_CELLS,
                       integ=integ,
                       name=f"{dataset}-{seeding}")


#: The one ``(dataset, seeding, scale) -> (problem, bank)`` entry a process
#: keeps between scenario runs: one problem's bank bounds the memory.
_HELD: Dict[Tuple[str, str, float], Tuple[ProblemSpec, TrajectoryBank]] = {}


def release_problem() -> None:
    """Drop the held problem and its bank (the end of a sweep)."""
    _HELD.clear()


def run_scenario(dataset: str, seeding: str, scale: float, algorithm: str,
                 n_ranks: int, **run_kwargs: Any) -> RunResult:
    """One evaluation run on :func:`scenario_machine`.  Consecutive runs
    of one problem share its ``ProblemSpec`` and trajectory bank, so only
    the first integrates the seeds; another problem replaces the held one."""
    key = (dataset, seeding, scale)
    if key not in _HELD:
        _HELD.clear()  # the old bank goes before the new one is built
        problem = make_problem(dataset, seeding, scale=scale)
        _HELD[key] = (problem, TrajectoryBank(
            problem, driver.default_store(problem)))
    problem, bank = _HELD[key]
    return driver.run_streamlines(problem, algorithm=algorithm,
                                  machine=scenario_machine(n_ranks),
                                  bank=bank, **run_kwargs)
