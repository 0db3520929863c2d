"""Fleet validation: probe every configured node before trusting it
with a sweep (``repro fleet check``).

A distributed sweep degrades gracefully when capacity is missing — the
wrong time to discover a dead ssh key or a refused launcher is twenty
minutes into a measurement run.  :func:`probe_fleet` performs the same
acquisition the executor would — fork or launch one worker per node,
run the full version/calibration handshake, then shut the worker down
politely — through the very acquisition functions the executor uses,
and reports per-node readiness: acquisition latency, the handshake's
protocol version, the worker's hostname, and its calibration speed
factor.

This is the tool the ROADMAP's "validate on a real fleet, record a
genuine ≥ 2× two-node makespan" item needs: run ``repro fleet check
--nodes host1:4,host2:8`` until every row reads ``ok``, then run the
measurement sweep (see docs/distributed.md).

Exit-code contract (enforced by the CLI): 0 when every probe passed,
1 when any configured node failed its launch or handshake, 2 for
configuration errors (no nodes, unparsable specs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exec.transport import (
    NodeSpec,
    TransportError,
    WorkerSource,
    worker_sources,
)


@dataclass
class ProbeResult:
    """Readiness of one fleet target (a node)."""

    target: str
    kind: str                      # "local" | "ssh"
    slots: int
    ok: bool
    latency: Optional[float] = None   # acquisition seconds
    speed: Optional[float] = None     # calibration speed factor
    host: str = ""                    # worker-announced hostname
    detail: str = ""                  # protocol / error


def _probe(source: WorkerSource) -> ProbeResult:
    """Acquire one worker from *source* — fork or launch — which runs
    the handshake; then shut it down."""
    target = dict(target=source.node.name, kind=source.kind,
                  slots=source.node.slots)
    t0 = time.monotonic()
    try:
        worker = source.spawn()
    except TransportError as exc:
        return ProbeResult(ok=False, detail=str(exc), **target)
    latency = time.monotonic() - t0
    worker.discard(terminate=False)
    hello = worker.hello
    return ProbeResult(ok=True, latency=latency, speed=worker.speed,
                       host=str(hello.get("host") or ""),
                       detail=f"protocol {hello.get('protocol')}", **target)


def probe_fleet(nodes: Sequence[NodeSpec],
                remote_template: Optional[str] = None
                ) -> List[ProbeResult]:
    """Probe every configured node, in listed order."""
    results: List[ProbeResult] = []
    for source in worker_sources(nodes, remote_template):
        try:
            results.append(_probe(source))
        finally:
            source.close()
    return results


def fleet_ok(results: Sequence[ProbeResult]) -> bool:
    return all(r.ok for r in results)


def fleet_report(results: Sequence[ProbeResult]) -> str:
    """Readiness table + one-line verdict."""
    if not results:
        return "(no fleet targets configured)"
    header = (f"{'target':<16} {'kind':<6} {'slots':>5}  {'status':<6} "
              f"{'latency':>8}  {'speed':>6}  {'host':<14} detail")
    lines = ["fleet readiness", header, "-" * len(header)]
    for r in results:
        latency = f"{r.latency:.2f}s" if r.latency is not None else "-"
        speed = f"{r.speed:.2f}" if r.speed is not None else "-"
        status = "ok" if r.ok else "FAIL"
        lines.append(f"{r.target:<16} {r.kind:<6} {r.slots:>5d}  "
                     f"{status:<6} {latency:>8}  {speed:>6}  "
                     f"{(r.host or '-'):<14} {r.detail}")
    good = sum(1 for r in results if r.ok)
    slots_ok = sum(r.slots for r in results if r.ok)
    lines.append("")
    verdict = (f"{good}/{len(results)} target(s) ready "
               f"({slots_ok} slot(s))")
    if good < len(results):
        bad = ", ".join(r.target for r in results if not r.ok)
        verdict += f"; FAILED: {bad}"
    lines.append(verdict)
    return "\n".join(lines)
