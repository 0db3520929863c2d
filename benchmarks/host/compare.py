"""``run.py compare A.json B.json``: apply the benchmark's bounds to
two result files.

One row per workload and end-to-end metric: base, new, new/base, and a
verdict.  ``regressed``: the new median is worse than the base's by
more than the metric's bound.  ``unresolved``: it is not, but the
spread between the quartiles of either side's samples is wider than
the bound, so "no worse" cannot be told from noise.  ``ok`` otherwise.
``failed_frac`` may not rise and ``verified_ops`` must cover every op
attempted.  When both files hold a traced pass of the same seed, the
per-layer counts that differ are listed too (they do not change the
exit code).  Exit code 0: no regression; 1: at least one; 2: bad input.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List


def _load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != 1 or "workloads" not in doc:
        raise ValueError(f"{path}: not a hostbench results file")
    return doc


def _spread(metric: Dict[str, Any]) -> float:
    """Distance between the quartiles of the pooled samples, as a share
    of their median: 0 when the metric keeps no samples, the whole range
    when there are too few for quartiles (set-up: one per round)."""
    samples = metric.get("samples", [])
    if len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(spec: Dict[str, Any], base: Dict[str, Any],
            new: Dict[str, Any], attempted: int) -> str:
    name, bound = spec["name"], spec["bound"]
    b, n = base["value"], new["value"]
    if name == "verified_ops":
        return "ok" if n == attempted else "regressed"
    worse = (n - b) if spec["better"] == "lower" else (b - n)
    if worse > bound * abs(b):
        return "regressed"
    if max(_spread(base), _spread(new)) > bound > 0:
        return "unresolved"
    return "ok"


def compare(base: Dict[str, Any], new: Dict[str, Any],
            specs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for name, entry in new["workloads"].items():
        other = base["workloads"].get(name, {})
        if "untraced" not in entry or "untraced" not in other:
            continue
        for spec in specs:
            b = other["untraced"]["metrics"][spec["name"]]
            n = entry["untraced"]["metrics"][spec["name"]]
            rows.append({
                "workload": name, "metric": spec["name"],
                "unit": spec["unit"], "base": b["value"],
                "new": n["value"],
                "ratio": n["value"] / b["value"] if b["value"] else None,
                "verdict": verdict(spec, b, n,
                                   entry["untraced"]["attempted"])})
    return rows


def moved_counts(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Per-layer counts of the traced passes that differ.  At one seed
    they are deterministic, so a pure perf change moves none of them."""
    lines = []
    for name, entry in new["workloads"].items():
        theirs = base["workloads"].get(name, {}).get("traced")
        if theirs is None or "traced" not in entry:
            continue
        for key, metric in entry["traced"]["metrics"].items():
            was = theirs["metrics"].get(key, metric)["value"]
            if metric["unit"] in ("count", "B", "lines") \
                    and was != metric["value"]:
                lines.append(f"{name:<15} {key}: {was:g} -> "
                             f"{metric['value']:g} {metric['unit']}")
    return lines


def main(argv: List[str], specs: List[Dict[str, Any]]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    try:
        base, new = _load(argv[0]), _load(argv[1])
        rows = compare(base, new, specs)
    except (OSError, ValueError, KeyError) as exc:
        print(f"run.py compare: {exc!r}", file=sys.stderr)
        return 2
    if not rows:
        print("run.py compare: the files share no timed workload",
              file=sys.stderr)
        return 2
    for env in (base["env"], new["env"]):
        print("env: " + ", ".join(f"{k}={env[k]}" for k in sorted(env)))
    print(f"{'workload':<15} {'metric':<13} {'base':>12} {'new':>12} "
          f"{'new/base':>9}  verdict")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['workload']:<15} {row['metric']:<13} "
              f"{row['base']:>12.6g} {row['new']:>12.6g} {ratio:>9}  "
              f"{row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "unresolved", "regressed")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    if base["seed"] == new["seed"]:
        moved = moved_counts(base, new)
        print(f"{len(moved)} per-layer counts moved")
        for line in moved:
            print("  " + line)
    return 1 if counts["regressed"] else 0
