#!/usr/bin/env python
"""Tutorial: bring your own vector field, machine, and analysis.

Walks through the full downstream-user workflow on a field that is *not*
one of the built-ins:

1. define a custom analytic field (a swirling jet),
2. ask the §6 heuristics which algorithm fits,
3. run it, compare against the other algorithms,
4. validate the numerics with a grid-convergence study,
5. export the geometry for a viewer.

Run:  python examples/custom_field_tutorial.py
"""

import numpy as np

import repro
from repro.analysis import (
    convergence_study,
    recommend_algorithm,
    traits_of_problem,
)
from repro.fields.base import AnalyticField
from repro.integrate import IntegratorConfig
from repro.mesh.bounds import Bounds
from repro.seeding import dense_cluster_seeds
from repro.viz import polyline_stats, write_vtk_polydata


class SwirlingJetField(AnalyticField):
    """A vertical jet with height-dependent swirl — a simple custom field
    a fluids person might sketch in five minutes."""

    name = "swirling-jet"

    def __init__(self) -> None:
        super().__init__(Bounds.cube(-1.0, 1.0))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        r2 = x * x + y * y
        core = np.exp(-r2 / 0.08)          # jet core profile
        swirl = 2.0 * core * (0.5 + 0.5 * z)  # swirl grows with height
        out = np.empty_like(pts)
        out[:, 0] = -swirl * y
        out[:, 1] = swirl * x
        out[:, 2] = 1.2 * core + 0.05      # upward advection + weak coflow
        return out


def main() -> None:
    field = SwirlingJetField()
    seeds = dense_cluster_seeds((0.0, 0.0, -0.9), 0.1, 300, seed=4,
                                clip_bounds=field.domain)
    problem = repro.ProblemSpec(
        field=field, seeds=seeds,
        blocks_per_axis=(4, 4, 4), cells_per_block=(8, 8, 8),
        integ=IntegratorConfig(max_steps=250, h_max=0.03,
                               rtol=1e-5, atol=1e-7),
        name="swirling-jet")
    print(problem.describe())

    # 2. What does §6 say?
    algo, reasons = recommend_algorithm(traits_of_problem(problem))
    print(f"\n§6 recommendation: {algo}")
    for r in reasons:
        print(f"  - {r}")

    # 3. Run all three and compare.
    print()
    machine = repro.MachineSpec(n_ranks=16)
    results = {}
    hybrid_cfg = repro.HybridConfig(assignment_quantum=5,
                                    overload_limit=60)
    for algorithm in repro.ALGORITHMS:
        r = repro.run_streamlines(problem, algorithm=algorithm,
                                  machine=machine, hybrid=hybrid_cfg)
        results[algorithm] = r
        print(f"  {algorithm:9s} wall={r.wall_clock:8.2f}s "
              f"io={r.io_time:7.2f}s comm={r.comm_time:6.3f}s "
              f"E={r.block_efficiency:.3f}")

    # 4. How much error does 8^3-cell sampling introduce here?
    study = convergence_study(field, seeds[:4], resolutions=(4, 8, 16),
                              blocks_per_axis=(4, 4, 4))
    print("\ngrid convergence (max curve deviation vs 48^3 reference):")
    for p in study:
        print(f"  {p.cells_per_block:2d}^3 cells/block: "
              f"{p.max_deviation:.5f}")

    # 5. Export for a viewer.
    lines = results[algo].streamlines
    print(f"\n{polyline_stats(lines)}")
    n = write_vtk_polydata("swirling_jet.vtk", lines,
                           title="swirling jet streamlines")
    print(f"wrote {n} polylines to swirling_jet.vtk")


if __name__ == "__main__":
    main()
