"""Host-side telemetry: real wall-clock, CPU and memory per labeled phase.

Everything else in ``repro/obs`` observes the *simulated* clock — the
numbers the paper reports and the BENCH snapshots gate.  This module is
its twin on the real machine: :class:`HostProbe` measures what the
Python process actually did while producing those simulated numbers —
wall and CPU seconds and peak RSS growth, attributed to labeled phases
(``setup`` / ``advect`` / ``merge`` / ...).  Every sweep run executes
under one (``repro.exec.worker``), and its dict travels back as
``RunOutcome.host``.

Separation contract
-------------------
Host metrics are **never byte-stable** (they vary by machine, load, and
interpreter), so they must never leak into deterministic artifacts:
BENCH snapshots, sweep summary JSONs, and ``repro diff`` gates exclude
them by construction.  Host numbers live in their own surface — the
executor telemetry event log — and never gate anything.

The probe never touches the simulated-side
:class:`~repro.obs.recorder.Recorder`.

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

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

try:  # unix only; Windows falls back to 0 (RSS unavailable via stdlib)
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Schema version of host-metric dicts (``HostProbe.to_dict`` output).
#: Independent of BENCH_SCHEMA: host metrics never enter BENCH snapshots.
HOST_SCHEMA = 2


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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "rss_growth_kb": self.rss_growth_kb,
        }


class HostProbe:
    """Low-overhead host-side timer for labeled phases.

    ``enabled`` is the master switch: a disabled probe records nothing
    and its ``phase`` contexts are no-ops.  The probe lazily starts its
    totals on the first ``phase()`` entry and freezes them on
    :meth:`stop` (idempotent; also called by ``__exit__``).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._phases: Dict[str, PhaseStats] = {}
        self._started = False
        self._stopped = False
        self._t0 = 0.0
        self._cpu0 = 0.0
        self._wall_s = 0.0
        self._cpu_s = 0.0
        #: CPU seconds of reaped helper processes (:func:`charge_child_cpu`).
        self._child_cpu = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the totals (idempotent; ``phase()`` calls it lazily)."""
        if self._started or not self.enabled:
            return
        self._started = True
        self._t0 = time.perf_counter()
        self._cpu0 = self._cpu()

    def stop(self) -> None:
        """Freeze the totals."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._wall_s = time.perf_counter() - self._t0
        self._cpu_s = self._cpu() - self._cpu0

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
        rss0 = max_rss_kb()
        t0, c0 = time.perf_counter(), self._cpu()
        try:
            yield
        finally:
            ps = self._phases.get(label)
            if ps is None:
                ps = self._phases[label] = PhaseStats(label=label)
            ps.count += 1
            ps.wall_s += time.perf_counter() - t0
            ps.cpu_s += self._cpu() - c0
            ps.rss_growth_kb += max(0, max_rss_kb() - rss0)

    def _cpu(self) -> float:
        """CPU seconds of this process and of the helpers it reaped."""
        return time.process_time() + self._child_cpu

    @property
    def phases(self) -> List[PhaseStats]:
        """Phase rows in first-entered order."""
        return list(self._phases.values())

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

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
            "phases": {label: ps.to_dict()
                       for label, ps in self._phases.items()},
        }


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
