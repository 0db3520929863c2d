"""Strong-scaling summary across the rank sweep (derived figure).

Not a single paper figure, but the quantity the whole evaluation is
about: how each algorithm's wall clock scales from the bottom to the top
of the simulated rank sweep.  Uses the same astro sweep as
``bench_figures.py``, memoized in the process, so it is nearly free
after it in the same pytest session.
"""

import os

from repro.analysis.experiments import sweep_dataset
from repro.analysis.scenarios import RANK_COUNTS

JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def test_strong_scaling_summary(benchmark):
    summaries = benchmark.pedantic(
        lambda: sweep_dataset("astro", jobs=JOBS), rounds=1, iterations=1)
    wall = {(s.key.algorithm, s.key.seeding, s.key.n_ranks): s.wall_clock
            for s in summaries}
    lo, hi = RANK_COUNTS[0], RANK_COUNTS[-1]
    ideal = hi / lo
    lines = [f"strong scaling, astro, {lo} -> {hi} ranks "
             f"(ideal speedup {ideal:.1f}x):"]
    for algorithm in ("static", "ondemand", "hybrid"):
        for seeding in ("sparse", "dense"):
            w_lo = wall[(algorithm, seeding, lo)]
            w_hi = wall[(algorithm, seeding, hi)]
            speedup = w_lo / w_hi
            eff = speedup / ideal
            lines.append(f"  {algorithm:9s} {seeding:6s} "
                         f"speedup {speedup:5.2f}x "
                         f"(parallel efficiency {eff:5.1%})")
            benchmark.extra_info[f"{algorithm}_{seeding}_speedup"] = \
                round(speedup, 3)
            # Everything must at least get faster with more ranks.
            assert speedup > 1.0, (algorithm, seeding, w_lo, w_hi)
    print("\n" + "\n".join(lines))
