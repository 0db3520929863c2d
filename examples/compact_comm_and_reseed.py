#!/usr/bin/env python
"""§8 extensions in action: compact communication and dynamic seeding.

Part 1 — compact communication: run the hybrid algorithm with and
without full-geometry streamline messages and report the savings.

Part 2 — distributed dynamic seeding: the §8 "add new seed points
dynamically based on an ongoing streamline calculation", running inside
the hybrid algorithm itself: terminating curves spawn children that join
the masters' pools mid-run.

Run:  python examples/compact_comm_and_reseed.py
"""

import repro
from repro.ext import compare_compact_communication
from repro.fields import ThermalHydraulicsField
from repro.integrate import IntegratorConfig
from repro.seeding import sparse_random_seeds


def part1_compact_comm() -> None:
    print("=" * 64)
    print("Part 1: compact communication (solver state only)")
    print("=" * 64)
    field = ThermalHydraulicsField()
    problem = repro.ProblemSpec(
        field=field,
        seeds=sparse_random_seeds(field.domain, 120, seed=9),
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=150, h_max=0.02))
    report = compare_compact_communication(
        problem, machine=repro.MachineSpec(n_ranks=8))
    print(f"full geometry:  {report.full_bytes:10d} B on the wire, "
          f"comm {report.full_comm_time:.3f} s")
    print(f"compact:        {report.compact_bytes:10d} B on the wire, "
          f"comm {report.compact_comm_time:.3f} s")
    print(f"saved:          {report.bytes_saved_fraction:.1%} of bytes, "
          f"{report.comm_time_saved:.3f} s of communication time")


def part2_dynamic_seeding() -> None:
    print("=" * 64)
    print("Part 2: dynamic seed creation inside the hybrid algorithm")
    print("=" * 64)
    field = ThermalHydraulicsField()
    problem = repro.ProblemSpec(
        field=field,
        seeds=sparse_random_seeds(
            field.domain.subbox((0.2, 0.2, 0.2), (0.8, 0.8, 0.8)), 24,
            seed=17),
        blocks_per_axis=(4, 4, 4), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=80, h_max=0.02))
    # Respawn curves that ran out of steps at their endpoint, extending
    # the interesting trajectories without re-running anything.
    policy = repro.ContinueThroughBudget(budget=12)
    result = repro.run_streamlines(problem, algorithm="hybrid",
                                   machine=repro.MachineSpec(n_ranks=8),
                                   reseed=policy)
    assert result.ok
    n_dynamic = len(result.streamlines) - problem.n_seeds
    print(f"original seeds: {problem.n_seeds}; dynamically created "
          f"curves: {n_dynamic} (budget 12)")
    print(f"all {len(result.streamlines)} curves terminated: "
          f"{result.status_counts()}\n")


def main() -> None:
    part1_compact_comm()
    part2_dynamic_seeding()


if __name__ == "__main__":
    main()
