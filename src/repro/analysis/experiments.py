"""Cached experiment runs and sweeps.

One simulated run yields *all four* of the paper's metrics (wall clock,
I/O time, communication time, block efficiency), so the four figures per
dataset share a single sweep.  ``run_experiment`` memoizes by configuration
— the simulation is deterministic, so a cache hit is exact — letting the
claims benchmark, the EXPERIMENTS.md generator and ``repro figure``
reuse each other's runs.

Summaries (not full results) are cached: streamline geometry is dropped
after aggregation to keep long benchmark sessions memory-bounded.

The disk cache is a **directory of per-key JSON files** written
atomically (tmp file + ``os.replace``) under an advisory lock, so
concurrent sweep workers (``repro sweep --jobs N``) can share it safely
and an interrupted benchmark session can never leave a corrupt cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:  # POSIX advisory locking; the cache degrades gracefully without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.core.config import HybridConfig
from repro.core.results import STATUS_OK, STATUS_OOM, RunResult
from repro.analysis.scenarios import RANK_COUNTS, run_scenario

#: Bump when a code change invalidates previously cached sweep results.
CACHE_VERSION = 2  # v2: span-based timer charging (last-ulp float shifts)

#: Default per-key cache directory (override with REPRO_CACHE_DIR; set
#: the environment variable to an empty string to disable disk caching).
_BENCH_ROOT = Path(__file__).resolve().parents[3] / "benchmarks"
_DEFAULT_CACHE_DIR = _BENCH_ROOT / ".sweep_cache"


@dataclass(frozen=True)
class ExperimentKey:
    """Identity of one cached run."""

    dataset: str
    seeding: str
    algorithm: str
    n_ranks: int
    scale: float = 1.0


@dataclass(frozen=True)
class RunSummary:
    """The per-run numbers the figures plot (plus context)."""

    key: ExperimentKey
    status: str
    wall_clock: float = 0.0
    io_time: float = 0.0
    comm_time: float = 0.0
    compute_time: float = 0.0
    block_efficiency: float = 1.0
    blocks_loaded: int = 0
    blocks_purged: int = 0
    messages: int = 0
    bytes_sent: int = 0
    steps: int = 0
    parallel_efficiency: float = 1.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def metric(self, name: str) -> Optional[float]:
        """Figure metric by name; None when the run failed (OOM)."""
        if not self.ok:
            return None
        if name not in ("wall_clock", "io_time", "comm_time",
                        "block_efficiency"):
            raise ValueError(f"unknown figure metric {name!r}")
        return getattr(self, name)


_CACHE: Dict[ExperimentKey, RunSummary] = {}
_DISK_LOADED = False


def _cache_dir() -> Optional[Path]:
    """The per-key cache directory (None = disk caching disabled)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        if env == "":
            return None
        return Path(env) / "sweep_cache"
    return _DEFAULT_CACHE_DIR


def _entry_path(key: ExperimentKey) -> Optional[Path]:
    root = _cache_dir()
    if root is None:
        return None
    return root / (f"{key.dataset}-{key.seeding}-{key.algorithm}"
                   f"-r{key.n_ranks}-s{key.scale!r}.json")


@contextlib.contextmanager
def _cache_lock(root: Path) -> Iterator[None]:
    """Advisory exclusive lock on the cache directory.

    Entry writes are already atomic (tmp + ``os.replace``) and identical
    keys produce identical bytes, so the lock only serializes the write
    *step* across concurrent workers (and whole-directory maintenance
    like :func:`clear_cache`); readers never need it.  Best-effort: on
    platforms without ``fcntl`` it is a no-op.
    """
    if fcntl is None:
        yield
        return
    lock_path = root / ".lock"
    try:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    except OSError:
        yield
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        with contextlib.suppress(OSError):
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _decode_entry(blob: Dict) -> Optional[Tuple[ExperimentKey, RunSummary]]:
    if blob.get("version") != CACHE_VERSION:
        return None
    try:
        key = ExperimentKey(**blob["key"])
        return key, RunSummary(key=key, **blob["summary"])
    except (KeyError, TypeError):
        return None


def _load_disk_cache() -> None:
    """Populate the in-memory cache from the per-key entry files, once
    per process."""
    global _DISK_LOADED
    if _DISK_LOADED:
        return
    _DISK_LOADED = True
    root = _cache_dir()
    if root is None or not root.is_dir():
        return
    for path in sorted(root.glob("*.json")):
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue  # torn entries are impossible; stale tmp isn't read
        decoded = _decode_entry(blob)
        if decoded is not None:
            key, summary = decoded
            _CACHE[key] = summary


def _save_entry(key: ExperimentKey, summary: RunSummary,
                elapsed: Optional[float] = None) -> None:
    """Persist one run atomically: write a private tmp file, then
    ``os.replace`` it over the entry — a reader (or a crash, or a
    concurrent worker) can observe the old entry or the new one, never
    a torn write.

    ``elapsed`` (measured *real* seconds for the uncached run) rides
    along as a top-level key, which ``repro cache`` shows.  Decoders
    ignore unknown top-level keys, so entries with and without it
    interoperate at the same ``CACHE_VERSION``.
    """
    path = _entry_path(key)
    if path is None:
        return
    d = dataclasses.asdict(summary)
    d.pop("key")
    blob = {"version": CACHE_VERSION,
            "key": dataclasses.asdict(key), "summary": d}
    if elapsed is not None and elapsed > 0.0:
        blob["elapsed"] = round(float(elapsed), 6)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with _cache_lock(path.parent):
            tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
            tmp.write_text(json.dumps(blob))
            os.replace(tmp, path)
    except OSError:
        pass  # caching is best-effort


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk sweep-cache entry, as ``repro cache`` reports it."""

    path: Path
    name: str                      # run name (or the file stem)
    scale: Optional[float]
    elapsed: Optional[float]       # measured real seconds, if recorded
    size: int                      # bytes on disk
    age: float                     # seconds since last write
    version: Optional[int]         # CACHE_VERSION of the entry
    valid: bool                    # decodable at the current version


def cache_entries(now: Optional[float] = None) -> List[CacheEntry]:
    """List every per-key sweep-cache entry on disk (no cache needed
    in memory; corrupt or stale-version entries are included, flagged
    invalid, so ``repro cache`` can surface them for pruning)."""
    root = _cache_dir()
    if root is None or not root.is_dir():
        return []
    if now is None:
        now = time.time()
    entries: List[CacheEntry] = []
    for path in sorted(root.glob("*.json")):
        try:
            stat = path.stat()
        except OSError:
            continue
        name = path.stem
        scale = elapsed = None
        version = None
        valid = False
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            blob = None
        if isinstance(blob, dict):
            version = blob.get("version")
            valid = _decode_entry(blob) is not None
            key = blob.get("key")
            if isinstance(key, dict):
                try:
                    name = (f"{key['dataset']}-{key['seeding']}-"
                            f"{key['algorithm']}-{key['n_ranks']}")
                    scale = float(key.get("scale", 1.0))
                except (KeyError, TypeError, ValueError):
                    pass
            raw = blob.get("elapsed")
            if isinstance(raw, (int, float)):
                elapsed = float(raw)
        entries.append(CacheEntry(
            path=path, name=name, scale=scale, elapsed=elapsed,
            size=stat.st_size, age=max(0.0, now - stat.st_mtime),
            version=version if isinstance(version, int) else None,
            valid=valid))
    return entries


def prune_cache(older_than: Optional[float] = None,
                now: Optional[float] = None) -> Tuple[int, int]:
    """Delete sweep-cache entries older than ``older_than`` seconds
    (``None`` = all of them); returns ``(files_removed,
    bytes_removed)``.  Also drops matching keys from the in-memory
    cache so the running process does not resurrect them."""
    removed = freed = 0
    for entry in cache_entries(now=now):
        if older_than is not None and entry.age < older_than:
            continue
        with contextlib.suppress(OSError):
            root = entry.path.parent
            with _cache_lock(root):
                entry.path.unlink()
            removed += 1
            freed += entry.size
    if removed:
        global _DISK_LOADED
        _CACHE.clear()
        _DISK_LOADED = False  # reload survivors lazily on next use
    return removed, freed


def clear_cache(disk: bool = False) -> None:
    """Drop all memoized runs (tests).  ``disk=True`` also removes the
    on-disk cache entries."""
    _CACHE.clear()
    if disk:
        root = _cache_dir()
        if root is not None and root.is_dir():
            with _cache_lock(root):
                for path in root.glob("*.json*"):
                    with contextlib.suppress(OSError):
                        path.unlink()


def summarize(key: ExperimentKey, result: RunResult) -> RunSummary:
    if not result.ok:
        return RunSummary(key=key, status=result.status)
    return RunSummary(
        key=key, status=result.status,
        wall_clock=result.wall_clock,
        io_time=result.io_time,
        comm_time=result.comm_time,
        compute_time=result.compute_time,
        block_efficiency=result.block_efficiency,
        blocks_loaded=result.blocks_loaded,
        blocks_purged=result.blocks_purged,
        messages=result.messages_sent,
        bytes_sent=result.bytes_sent,
        steps=result.total_steps,
        parallel_efficiency=result.parallel_efficiency,
    )


def run_experiment(dataset: str, seeding: str, algorithm: str,
                   n_ranks: int, scale: float = 1.0,
                   hybrid: Optional[HybridConfig] = None) -> RunSummary:
    """Run (or fetch from cache) one figure configuration.

    Non-default ``hybrid`` configs bypass the cache (they are ablations,
    each run once anyway).
    """
    key = ExperimentKey(dataset=dataset, seeding=seeding,
                        algorithm=algorithm, n_ranks=n_ranks, scale=scale)
    if hybrid is None:
        _load_disk_cache()
        cached = _CACHE.get(key)
        if cached is not None:
            return cached
    t0 = time.monotonic()
    result = run_scenario(dataset, seeding, scale, algorithm, n_ranks,
                          hybrid=hybrid)
    summary = summarize(key, result)
    if hybrid is None:
        _CACHE[key] = summary
        _save_entry(key, summary, elapsed=time.monotonic() - t0)
    return summary


def sweep_dataset(dataset: str, scale: float = 1.0,
                  rank_counts: Sequence[int] = RANK_COUNTS,
                  algorithms: Sequence[str] = ("static", "ondemand",
                                               "hybrid"),
                  seedings: Sequence[str] = ("sparse", "dense"),
                  jobs: int = 1, timeout: Optional[float] = None,
                  telemetry=None) -> List[RunSummary]:
    """Run the full grid for one dataset (all four figures' data).

    The uncached cells go through a
    :class:`~repro.exec.executor.SweepExecutor` at every ``jobs``
    (``1`` runs them inline, ``0`` means one worker per CPU); each is a
    summary-mode run whose ``run_experiment`` — the only cache writer —
    persists it with its measured real runtime (``repro cache`` shows
    it).  The returned list is in grid order, so figure tables are
    identical for any job count.  ``telemetry`` — a sink or a list of
    sinks — is passed to the executor.  A real ``MemoryError`` comes
    back as an ``oom`` summary, never memoized or persisted: it is a
    machine-dependent outcome.
    Raises ``RuntimeError`` with a failure report if any run crashed or
    timed out (completed cells stay cached, so a retry only re-runs the
    failures).
    """
    keys = [ExperimentKey(dataset=dataset, seeding=seeding,
                          algorithm=algorithm, n_ranks=n_ranks,
                          scale=scale)
            for seeding in seedings
            for algorithm in algorithms
            for n_ranks in rank_counts]
    _load_disk_cache()
    missing = [k for k in keys if k not in _CACHE]
    oom: Dict[ExperimentKey, RunSummary] = {}
    if missing:
        from repro.exec import (RunSpec, SweepExecutor, default_jobs,
                                failure_report)

        outcomes = SweepExecutor(
            jobs=default_jobs() if jobs <= 0 else jobs, timeout=timeout,
            telemetry=telemetry,
        ).run([RunSpec(**dataclasses.asdict(k)) for k in missing])
        if any(o.failed for o in outcomes):
            raise RuntimeError(failure_report(outcomes))
        for k, o in zip(missing, outcomes):
            if o.ok:
                _CACHE[k] = o.payload
            else:
                oom[k] = RunSummary(key=k, status=STATUS_OOM)
    return [oom.get(k) or _CACHE[k] for k in keys]
