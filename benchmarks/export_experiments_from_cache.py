#!/usr/bin/env python
"""Render EXPERIMENTS.md from the on-disk sweep cache *without* running
anything.

Unlike generate_experiments_md.py (which completes missing cells by
simulating them), this exporter reads only the cached runs — the
per-key atomic entry directory ``benchmarks/.sweep_cache/`` — and
renders cells that have not been swept yet as `-`.  Useful to snapshot
partial progress of a long sweep.

Usage:  python benchmarks/export_experiments_from_cache.py [output.md]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.analysis.experiments import cached_summaries
from repro.analysis.report import FIGURE_NUMBERS, METRIC_INFO, figure_table
from repro.analysis.scenarios import RANK_COUNTS
from benchmarks.generate_experiments_md import HEADER, PAPER_FINDINGS
from repro.analysis.scenarios import SEED_COUNTS

SCALE = 1.0


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("EXPERIMENTS.md")
    cached = cached_summaries()
    by_dataset = {}
    for key, summary in cached.items():
        if key.scale == SCALE and key.n_ranks in RANK_COUNTS:
            by_dataset.setdefault(key.dataset, []).append(summary)

    parts = [HEADER.format(
        scale=SCALE,
        astro_n=int(SEED_COUNTS[("astro", "sparse")] * SCALE),
        fusion_n=int(SEED_COUNTS[("fusion", "sparse")] * SCALE),
        thermal_sparse=int(SEED_COUNTS[("thermal", "sparse")] * SCALE),
        thermal_dense=int(SEED_COUNTS[("thermal", "dense")] * SCALE),
        ranks=", ".join(str(r) for r in RANK_COUNTS))]

    incomplete = []
    for (dataset, metric), fig in sorted(FIGURE_NUMBERS.items(),
                                         key=lambda kv: kv[1]):
        caption, unit, _ = METRIC_INFO[metric]
        summaries = by_dataset.get(dataset, [])
        parts.append(f"## Figure {fig} — {dataset}: {caption}\n")
        parts.append("**Paper:** " + PAPER_FINDINGS[(dataset, metric)]
                     + "\n")
        parts.append("**Measured:**\n")
        parts.append("```")
        if summaries:
            parts.append(figure_table(dataset, summaries, metric))
            if len(summaries) < 3 * 2 * len(RANK_COUNTS):
                incomplete.append(fig)
        else:
            parts.append("(sweep for this dataset not yet run)")
            incomplete.append(fig)
        parts.append("```\n")

    if incomplete:
        parts.append(
            f"\n*Note: figures {sorted(set(incomplete))} were exported "
            "from a partially completed sweep (cells shown as `-`); "
            "re-run `python benchmarks/generate_experiments_md.py` to "
            "fill them in.*\n")
    out.write_text("\n".join(parts))
    print(f"wrote {out} ({len(cached)} cached runs)")


if __name__ == "__main__":
    main()
