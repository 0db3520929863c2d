"""Per-spec runtime estimation for sweep scheduling.

The scheduler (:mod:`repro.exec.schedule`) needs to know, before a
sweep starts, roughly how long each :class:`~repro.exec.spec.RunSpec`
will take in *real* seconds.  Two sources feed that estimate, in
priority order:

1. **History** — measured ``elapsed`` values persisted by earlier
   sweeps: the per-key entries of the sweep cache
   (``benchmarks/.sweep_cache/``, written by
   :mod:`repro.analysis.experiments` with the executor's measured
   ``RunOutcome.elapsed``) and the ``retire`` events of executor
   telemetry logs (``events.jsonl``, see :mod:`repro.exec.telemetry`).
   Samples recorded at a different ``scale`` are linearly rescaled
   (cost is dominated by seed count, which is proportional to scale).
2. **A static cost model** — when a spec has no history at all, a
   feature-based fallback: seed count (dataset x seeding x scale)
   times per-dataset and per-algorithm cost factors and a mild
   rank-count term.  The absolute calibration is rough; the scheduler
   only needs the *relative* order to be sane, and the telemetry
   accuracy analyzer (:func:`repro.exec.telemetry.schedule_table`)
   reports how rough it was (per-run predicted vs actual, MAPE).

Estimates are host-side only: they order dispatch, never touch
payloads, so every deterministic artifact is byte-identical whatever
the estimator says.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exec.spec import RunSpec

#: Estimate provenance markers.
SOURCE_HISTORY = "history"
SOURCE_MODEL = "model"

#: Samples shorter than this [real seconds] are discarded: they are
#: sweep-cache hits (the memoized lookup returns in ~1 ms), not
#: measurements of the run.  Letting them in poisons the history — a
#: warm-cache sweep would teach the estimator that every run is
#: "instant" and the next cold sweep's LPT order would be garbage.
MIN_SAMPLE_SECONDS = 0.01

# --------------------------------------------------------------------- #
# Static cost model (the no-history fallback)
# --------------------------------------------------------------------- #

#: Relative per-seed cost by dataset (astro's braided field takes the
#: most integrator steps per seed; fusion curves are individually long
#: but the seed sets are small and cheap per seed at our resolution).
_DATASET_FACTOR = {"astro": 1.0, "fusion": 0.55, "thermal": 0.8}

#: Relative cost by algorithm: hybrid pays master/slave coordination on
#: top of advection; static idles ranks but simulates every block load.
_ALGO_FACTOR = {"static": 0.9, "ondemand": 0.8, "hybrid": 1.2}

#: Calibration constant [real seconds per seed] measured on the
#: reference 1-core box (astro/dense/hybrid, scale 0.1: ~200 seeds in
#: ~2 s).  Only the relative ordering matters for LPT.
_SECONDS_PER_SEED = 0.010

#: Fallback seed counts when ``repro.analysis.scenarios`` is not
#: importable (keeps the estimator usable from a stripped checkout).
_FALLBACK_SEEDS = 1000


def _seed_count(spec: RunSpec) -> float:
    try:
        from repro.analysis.scenarios import SEED_COUNTS
        base = SEED_COUNTS.get((spec.dataset, spec.seeding),
                               _FALLBACK_SEEDS)
    except ImportError:  # pragma: no cover - defensive
        base = _FALLBACK_SEEDS
    return max(4.0, base * spec.scale)


def model_estimate(spec: RunSpec) -> float:
    """Static cost model [seconds]: spec features only, no history."""
    seconds = (_seed_count(spec) * _SECONDS_PER_SEED
               * _DATASET_FACTOR.get(spec.dataset, 1.0)
               * _ALGO_FACTOR.get(spec.algorithm, 1.0)
               * (1.0 + spec.n_ranks / 64.0))
    if spec.oom_probe:
        # The probe dies (by design) long before a full run would end.
        seconds *= 0.25
    return max(0.01, seconds)


# --------------------------------------------------------------------- #
# History-backed estimator
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Estimate:
    """One spec's predicted runtime and where the prediction came from."""

    seconds: float
    source: str  # SOURCE_HISTORY or SOURCE_MODEL


class RuntimeEstimator:
    """Predict per-spec runtimes from persisted history, with the
    static model as fallback.

    History samples are keyed by run name (``spec.name``) and carry the
    ``scale`` they were measured at when known (sweep-cache entries
    know it; telemetry retire events do not — their samples match any
    scale).  ``estimate`` prefers same-scale samples, then rescales
    other-scale samples linearly, then falls back to the model.
    """

    def __init__(self) -> None:
        #: run name -> [(scale or None, elapsed seconds)]
        self._samples: Dict[str, List[Tuple[Optional[float], float]]] = {}

    # -- loading ------------------------------------------------------- #

    @classmethod
    def from_history(cls, cache_dir: Optional[Path] = None,
                     event_logs: Sequence[Path] = ()) -> "RuntimeEstimator":
        """Build an estimator from every available history source.

        ``cache_dir=None`` means the default sweep-cache directory
        (honoring ``REPRO_CACHE_DIR``); pass paths of prior telemetry
        ``events.jsonl`` files in ``event_logs``.
        """
        est = cls()
        est.load_cache_dir(cache_dir)
        for path in event_logs:
            est.load_event_log(path)
        return est

    def record(self, name: str, elapsed: float,
               scale: Optional[float] = None) -> bool:
        """Add one measured sample (used by loaders and live sweeps).

        Near-zero samples (< :data:`MIN_SAMPLE_SECONDS`) are rejected
        (returns ``False``): they come from sweep-cache hits, not from
        running anything.
        """
        if elapsed < MIN_SAMPLE_SECONDS:
            return False
        self._samples.setdefault(name, []).append((scale, elapsed))
        return True

    def load_cache_dir(self, root: Optional[Path] = None) -> int:
        """Ingest ``elapsed`` from per-key sweep-cache entries; returns
        the number of samples loaded.  Missing directory is fine (cold
        cache); entries without ``elapsed`` (pre-scheduler writers) are
        skipped."""
        if root is None:
            from repro.analysis.experiments import _cache_dir
            root = _cache_dir()
        if root is None or not Path(root).is_dir():
            return 0
        loaded = 0
        for path in sorted(Path(root).glob("*.json")):
            try:
                blob = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            elapsed = blob.get("elapsed")
            key = blob.get("key")
            if not isinstance(elapsed, (int, float)) or elapsed <= 0.0:
                continue
            if not isinstance(key, dict):
                continue
            try:
                name = (f"{key['dataset']}-{key['seeding']}-"
                        f"{key['algorithm']}-{key['n_ranks']}")
                scale = float(key.get("scale", 1.0))
            except (KeyError, TypeError, ValueError):
                continue
            if self.record(name, float(elapsed), scale):
                loaded += 1
        return loaded

    def load_event_log(self, path: Path) -> int:
        """Ingest ``retire`` events of a telemetry ``events.jsonl``;
        returns the number of samples loaded.  Unreadable or malformed
        files contribute nothing (history is best-effort)."""
        path = Path(path)
        if not path.is_file():
            return 0
        loaded = 0
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(event, dict):
                continue
            if event.get("event") != "retire":
                continue
            run = event.get("run")
            elapsed = event.get("elapsed")
            if (isinstance(run, str) and run
                    and isinstance(elapsed, (int, float)) and elapsed > 0.0
                    and event.get("status") in ("ok", "oom")):
                if self.record(run, float(elapsed)):
                    loaded += 1
        return loaded

    # -- querying ------------------------------------------------------ #

    def has_history(self, spec: RunSpec) -> bool:
        return bool(self._samples.get(spec.name))

    def coverage(self, specs: Sequence[RunSpec]) -> float:
        """Fraction of specs with at least one history sample."""
        if not specs:
            return 0.0
        hits = sum(1 for s in specs if self.has_history(s))
        return hits / len(specs)

    def estimate(self, spec: RunSpec) -> Estimate:
        """Predict the spec's runtime in real seconds."""
        samples = self._samples.get(spec.name)
        if samples:
            # Scale-free samples (telemetry) and same-scale cache
            # samples are used directly; other-scale cache samples are
            # rescaled linearly (cost ~ seed count ~ scale).
            usable = [e for sc, e in samples
                      if sc is None or sc == spec.scale]
            if not usable:
                usable = [e * (spec.scale / sc) for sc, e in samples
                          if sc and sc > 0.0]
            if usable:
                return Estimate(seconds=sum(usable) / len(usable),
                                source=SOURCE_HISTORY)
        return Estimate(seconds=model_estimate(spec), source=SOURCE_MODEL)

    def to_mapping(self) -> Mapping[str, Any]:
        """Snapshot of the loaded samples (introspection/tests)."""
        return {name: list(samples)
                for name, samples in sorted(self._samples.items())}
