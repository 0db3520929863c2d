"""Host-side telemetry: real wall-clock, CPU, memory, and GC profiling.

Everything else in ``repro/obs`` observes the *simulated* clock — the
numbers the paper reports and the BENCH snapshots gate.  This module is
its twin on the real machine: :class:`HostProbe` measures what the
Python process actually did while producing those simulated numbers —
wall and CPU seconds, peak RSS growth, optional tracemalloc deltas, and
GC pause counts, attributed to labeled phases (``setup`` / ``advect`` /
``merge`` / ...), plus an optional stdlib-only sampling profiler thread
that aggregates stack frames into collapsed-stack format for
``flamegraph.pl`` / speedscope.

Separation contract
-------------------
Host metrics are **never byte-stable** (they vary by machine, load, and
interpreter), so they must never leak into deterministic artifacts:
BENCH snapshots, sweep summary JSONs, and ``repro diff`` gates exclude
them by construction.  Host numbers live in their own surfaces —
``repro profile --json``, executor telemetry event logs, and the
advisory ``repro diff --host`` mode — and every rendering labels them
as machine-dependent.

The probe never touches the simulated-side
:class:`~repro.obs.recorder.Recorder`: ``repro profile`` runs with no
recorder at all, so profiling a run needs no trace directory.

Collapsed-stack format
----------------------
One line per unique stack, ``frame;frame;frame count`` (root first,
leaf last, a single space before the sample count) — exactly what
``flamegraph.pl`` and speedscope's "collapsed" importer parse.  The
first frame is the active phase label, so a flamegraph splits by phase
at the root.

Active-probe plumbing
---------------------
Worker tasks that want to label phases without threading a probe
through every signature use the module-level active probe::

    with activated(probe):
        ...                       # anywhere below:
        with host_phase("advect"):
            run()

``host_phase`` is a no-op when no probe is active (the default is the
shared disabled :data:`NULL_PROBE`), so instrumentation sites are
unconditional.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

try:  # unix only; Windows falls back to 0 (RSS unavailable via stdlib)
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Schema version of host-metric dicts (``HostProbe.to_dict`` output and
#: the ``repro profile --json`` document).  Independent of BENCH_SCHEMA:
#: host metrics never enter BENCH snapshots.
HOST_SCHEMA = 1

#: Default sampling-profiler period [real seconds].
PROFILE_INTERVAL = 0.005

#: Stack label used for samples taken outside any phase.
NO_PHASE = "(no-phase)"


def max_rss_kb() -> int:
    """Peak RSS of this process in KiB (0 where unavailable)."""
    if resource is None:  # pragma: no cover
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(peak // 1024) if sys.platform == "darwin" else int(peak)


@dataclass
class PhaseStats:
    """Accumulated host cost of one labeled phase (inclusive of nested
    phases; repeated phases with the same label merge)."""

    label: str
    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_growth_kb: int = 0
    alloc_kb: float = 0.0        # tracemalloc net delta (when tracing)
    alloc_peak_kb: float = 0.0   # max tracemalloc peak seen in the phase
    gc_collections: int = 0
    gc_pause_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "rss_growth_kb": self.rss_growth_kb,
            "alloc_kb": round(self.alloc_kb, 3),
            "alloc_peak_kb": round(self.alloc_peak_kb, 3),
            "gc_collections": self.gc_collections,
            "gc_pause_s": round(self.gc_pause_s, 6),
        }


class _Sampler(threading.Thread):
    """Stdlib sampling profiler: periodically walks the target thread's
    stack via ``sys._current_frames`` and counts collapsed stacks."""

    def __init__(self, probe: "HostProbe", target_ident: int,
                 interval: float) -> None:
        super().__init__(name="repro-host-sampler", daemon=True)
        self._probe = probe
        self._target = target_ident
        self._interval = interval
        self._stop_evt = threading.Event()

    def stop(self) -> None:
        self._stop_evt.set()
        self.join(timeout=2.0)

    def run(self) -> None:  # pragma: no cover - exercised via samples
        while not self._stop_evt.wait(self._interval):
            self._sample()

    def _sample(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        parts: List[str] = []
        depth = 0
        while frame is not None and depth < 128:
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            parts.append(f"{Path(code.co_filename).stem}.{name}")
            frame = frame.f_back
            depth += 1
        parts.append(self._probe._current_phase())
        parts.reverse()
        # flamegraph.pl splits frames on ';' and the count on the last
        # space, so neither may appear inside a frame name.
        key = ";".join(parts).replace(" ", "_")
        with self._probe._lock:
            self._probe._samples[key] = self._probe._samples.get(key, 0) + 1


class HostProbe:
    """Low-overhead host-side profiler for labeled phases.

    Parameters
    ----------
    enabled:
        Master switch; a disabled probe records nothing and its
        ``phase`` contexts are no-ops.
    profile:
        Start the sampling-profiler thread (collapsed stacks).  Off by
        default: executor children collect only phase timings.
    profile_interval:
        Sampling period in real seconds (default 5 ms).
    trace_malloc:
        Also track per-phase ``tracemalloc`` deltas.  Opt-in: tracing
        allocations slows the interpreter severalfold, which would
        distort the very timings being measured.

    The probe lazily arms itself on the first ``phase()`` entry (GC
    callback, sampler thread, tracemalloc) and disarms on :meth:`stop`
    (idempotent; also called by ``__exit__``).
    """

    def __init__(self, enabled: bool = True, profile: bool = False,
                 profile_interval: float = PROFILE_INTERVAL,
                 trace_malloc: bool = False) -> None:
        self.enabled = enabled
        self.profile = profile
        self.profile_interval = profile_interval
        self.trace_malloc = trace_malloc
        self._phases: Dict[str, PhaseStats] = {}
        self._stack: List[str] = []
        self._samples: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._sampler: Optional[_Sampler] = None
        self._started = False
        self._stopped = False
        self._t0 = 0.0
        self._cpu0 = 0.0
        self._wall_s = 0.0
        self._cpu_s = 0.0
        self._gc_collections = 0
        self._gc_pause_s = 0.0
        self._gc_t: Optional[float] = None
        self._own_tracemalloc = False
        #: CPU seconds of reaped helper processes (:func:`charge_child_cpu`).
        self._child_cpu = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm the probe (idempotent; ``phase()`` calls it lazily)."""
        if self._started or not self.enabled:
            return
        self._started = True
        self._t0 = time.perf_counter()
        self._cpu0 = self._cpu()
        gc.callbacks.append(self._on_gc)
        if self.trace_malloc:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._own_tracemalloc = True
        if self.profile:
            self._sampler = _Sampler(self, threading.get_ident(),
                                     self.profile_interval)
            self._sampler.start()

    def stop(self) -> None:
        """Disarm: stop the sampler, detach the GC hook, freeze totals."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._wall_s = time.perf_counter() - self._t0
        self._cpu_s = self._cpu() - self._cpu0
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - already removed
            pass
        if self._own_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._own_tracemalloc = False

    def __enter__(self) -> "HostProbe":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute the enclosed host work to ``label``.

        Phases may nest; a phase's numbers are inclusive of its
        children.  Re-entering a label accumulates into the same row.
        """
        if not self.enabled:
            yield
            return
        self.start()
        if self.trace_malloc:
            import tracemalloc

            alloc0, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        rss0 = max_rss_kb()
        gc_n0, gc_s0 = self._gc_collections, self._gc_pause_s
        t0, c0 = time.perf_counter(), self._cpu()
        self._stack.append(label)
        try:
            yield
        finally:
            self._stack.pop()
            ps = self._phases.get(label)
            if ps is None:
                ps = self._phases[label] = PhaseStats(label=label)
            ps.count += 1
            ps.wall_s += time.perf_counter() - t0
            ps.cpu_s += self._cpu() - c0
            ps.rss_growth_kb += max(0, max_rss_kb() - rss0)
            ps.gc_collections += self._gc_collections - gc_n0
            ps.gc_pause_s += self._gc_pause_s - gc_s0
            if self.trace_malloc:
                import tracemalloc

                alloc1, peak1 = tracemalloc.get_traced_memory()
                ps.alloc_kb += (alloc1 - alloc0) / 1024.0
                ps.alloc_peak_kb = max(ps.alloc_peak_kb, peak1 / 1024.0)

    def _cpu(self) -> float:
        """CPU seconds of this process and of the helpers it reaped."""
        return time.process_time() + self._child_cpu

    def _current_phase(self) -> str:
        # Read by the sampler thread without the lock: a list read is
        # atomic under the GIL and a stale label is harmless.
        stack = self._stack
        return stack[-1] if stack else NO_PHASE

    @property
    def phases(self) -> List[PhaseStats]:
        """Phase rows in first-entered order."""
        return list(self._phases.values())

    # ------------------------------------------------------------------ #
    # GC hook
    # ------------------------------------------------------------------ #

    def _on_gc(self, event: str, info: Mapping[str, Any]) -> None:
        if event == "start":
            self._gc_t = time.perf_counter()
        elif event == "stop":
            self._gc_collections += 1
            if self._gc_t is not None:
                self._gc_pause_s += time.perf_counter() - self._gc_t
                self._gc_t = None

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def collapsed(self) -> Dict[str, int]:
        """``stack -> sample count`` from the sampling profiler."""
        with self._lock:
            return dict(self._samples)

    @property
    def sample_count(self) -> int:
        with self._lock:
            return sum(self._samples.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe host-metric summary (``HOST_SCHEMA``)."""
        if self._started and not self._stopped:
            wall = time.perf_counter() - self._t0
            cpu = self._cpu() - self._cpu0
        else:
            wall, cpu = self._wall_s, self._cpu_s
        return {
            "schema": HOST_SCHEMA,
            "wall_s": round(wall, 6),
            "cpu_s": round(cpu, 6),
            "max_rss_kb": max_rss_kb(),
            "gc": {
                "collections": self._gc_collections,
                "pause_s": round(self._gc_pause_s, 6),
            },
            "samples": self.sample_count,
            "phases": {label: ps.to_dict()
                       for label, ps in self._phases.items()},
        }

    def report(self) -> str:
        return host_report(self.to_dict())


#: Shared disabled probe, the default active probe: every ``phase()``
#: through it is a no-op.
NULL_PROBE = HostProbe(enabled=False)

_ACTIVE: HostProbe = NULL_PROBE


def get_active() -> HostProbe:
    """The probe ``host_phase`` currently charges (NULL_PROBE when off)."""
    return _ACTIVE


@contextmanager
def activated(probe: HostProbe) -> Iterator[HostProbe]:
    """Install ``probe`` as the active probe for the enclosed block."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = probe
    try:
        yield probe
    finally:
        _ACTIVE = prev


def host_phase(label: str):
    """Label a host phase on the active probe (no-op when none is)."""
    return _ACTIVE.phase(label)


def charge_child_cpu(seconds: float) -> None:
    """Charge a reaped child's CPU seconds (``ru_utime + ru_stime`` from
    ``os.wait4``) to the active probe: its open phases and its total.
    ``time.process_time()`` counts only the calling process, so a
    helper's work would otherwise vanish from ``cpu_s``."""
    if _ACTIVE.enabled:
        _ACTIVE._child_cpu += seconds


# ---------------------------------------------------------------------- #
# Rendering and files
# ---------------------------------------------------------------------- #

def write_collapsed(path, collapsed: Mapping[str, int]) -> None:
    """Write ``frame;frame;frame count`` lines, most-sampled first
    (parseable by ``flamegraph.pl`` and speedscope)."""
    path = Path(path)
    if path.parent:
        path.parent.mkdir(parents=True, exist_ok=True)
    rows = sorted(collapsed.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(path, "w", encoding="utf-8") as fh:
        for stack, count in rows:
            fh.write(f"{stack} {count}\n")


def _short_stack(stack: str, keep: int = 3) -> str:
    parts = stack.split(";")
    if len(parts) <= keep + 2:
        return stack
    return ";".join([parts[0], "..."] + parts[-keep:])


def collapsed_table(collapsed: Mapping[str, int], top: int = 10) -> str:
    """Top-``top`` sampled stacks as an aligned text table."""
    total = sum(collapsed.values())
    if not total:
        return ("no profiler samples (run shorter than the sampling "
                "interval, or profiling disabled)")
    rows = sorted(collapsed.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    lines = [f"top {len(rows)} sampled stacks ({total} samples; "
             "leaf-most frames shown):"]
    for stack, count in rows:
        lines.append(f"  {count / total * 100.0:5.1f}%  {count:>6d}  "
                     f"{_short_stack(stack)}")
    return "\n".join(lines)


def host_report(host: Mapping[str, Any]) -> str:
    """Aligned per-phase table of a host-metric dict.

    Always headlined as machine-dependent: these numbers never enter
    BENCH snapshots and never gate ``repro diff``.
    """
    lines = ["host telemetry (real machine time; varies by host, never "
             "part of BENCH snapshots):"]
    header = (f"  {'phase':<12}{'calls':>7}{'wall [s]':>11}{'cpu [s]':>11}"
              f"{'rss+ [KiB]':>12}{'gc':>5}{'gc pause [s]':>14}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for label, ps in (host.get("phases") or {}).items():
        lines.append(f"  {label:<12}{ps['count']:>7d}{ps['wall_s']:>11.3f}"
                     f"{ps['cpu_s']:>11.3f}{ps['rss_growth_kb']:>12d}"
                     f"{ps['gc_collections']:>5d}{ps['gc_pause_s']:>14.3f}")
    gc_info = host.get("gc") or {}
    lines.append(f"  {'total':<12}{'':>7}{host.get('wall_s', 0.0):>11.3f}"
                 f"{host.get('cpu_s', 0.0):>11.3f}"
                 f"{host.get('max_rss_kb', 0):>12d}"
                 f"{gc_info.get('collections', 0):>5d}"
                 f"{gc_info.get('pause_s', 0.0):>14.3f}")
    lines.append("  (total rss column is the process peak RSS, not a "
                 "delta)")
    if any((host.get("phases") or {}).get(p, {}).get("alloc_kb")
           for p in (host.get("phases") or {})):
        lines.append("  tracemalloc deltas [KiB]: " + ", ".join(
            f"{label}={ps['alloc_kb']:.0f} (peak {ps['alloc_peak_kb']:.0f})"
            for label, ps in host["phases"].items()))
    return "\n".join(lines)


def load_host_comparable(path) -> Dict[str, Dict[str, float]]:
    """A ``run-name -> host metrics`` table from a ``repro profile
    --json`` document, for the advisory ``repro diff --host`` mode.

    Phase metrics are pre-flattened (``phase.advect.wall_s``); simulated
    numbers in the document are deliberately excluded — host and
    simulated time never mix in one comparison.
    """
    path = Path(path)
    blob = json.loads(path.read_text())
    if blob.get("host_schema") != HOST_SCHEMA:
        raise ValueError(
            f"{path}: not a host profile (expected a `repro profile "
            f"--json` document with host_schema {HOST_SCHEMA})")
    host = blob.get("host") or {}
    flat: Dict[str, float] = {}
    for key in ("wall_s", "cpu_s", "max_rss_kb", "samples"):
        value = host.get(key)
        if isinstance(value, (int, float)):
            flat[key] = float(value)
    gc_info = host.get("gc") or {}
    for key in ("collections", "pause_s"):
        value = gc_info.get(key)
        if isinstance(value, (int, float)):
            flat[f"gc.{key}"] = float(value)
    for label, ps in (host.get("phases") or {}).items():
        for key in ("wall_s", "cpu_s", "rss_growth_kb", "gc_pause_s"):
            value = ps.get(key)
            if isinstance(value, (int, float)):
                flat[f"phase.{label}.{key}"] = float(value)
    name = (blob.get("scenario") or {}).get("name") or path.stem
    return {name: flat}
