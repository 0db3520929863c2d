"""Fleet validation: probe every configured node and queue before
trusting them with a sweep (``repro fleet check``).

A distributed sweep degrades gracefully when capacity is missing — the
wrong time to discover a dead ssh key or a rejected ``sbatch`` is
twenty minutes into a measurement run.  :func:`probe_fleet` performs
the same acquisition the executor would — launch (or submit) one
worker per target, run the full version/calibration handshake, then
shut the worker down politely — through the very acquisition functions
the executor uses, and reports per-target readiness:
acquisition latency, the handshake's protocol/feature announcement,
the worker's hostname, and its calibration speed factor.

This is the tool the ROADMAP's "validate on a real fleet, record a
genuine ≥ 2× two-node makespan" item needs: run ``repro fleet check
--nodes host1:4,host2:8`` until every row reads ``ok``, then run the
measurement sweep (see docs/distributed.md).

Exit-code contract (enforced by the CLI): 0 when every probe passed,
1 when any configured node or queue failed its probe or handshake,
2 for configuration errors (no targets, unparsable specs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exec.transport import (
    NodeSpec,
    QueueSpec,
    TransportError,
    WorkerSource,
    worker_sources,
)


@dataclass
class ProbeResult:
    """Readiness of one fleet target (a node or a queue)."""

    target: str
    kind: str                      # "local" | "ssh" | "queue"
    slots: int
    ok: bool
    latency: Optional[float] = None   # acquisition seconds
    speed: Optional[float] = None     # calibration speed factor
    host: str = ""                    # worker-announced hostname
    detail: str = ""                  # features / external id / error


def _probe(source: WorkerSource) -> ProbeResult:
    """Acquire one worker from *source* — fork, launch, or submit and
    await the dial-back — which runs the handshake; then shut it down.
    A queue reports its declared slot count but only one job's worth of
    queue time is consumed."""
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
    features = hello.get("features")
    detail = f"protocol {hello.get('protocol')}"
    if isinstance(features, (list, tuple)) and features:
        detail += f", features {','.join(str(f) for f in features)}"
    if worker.external_id:
        detail += f", job id {worker.external_id}"
    return ProbeResult(ok=True, latency=latency, speed=worker.speed,
                       host=str(hello.get("host") or ""), detail=detail,
                       **target)


def probe_fleet(nodes: Sequence[NodeSpec] = (),
                queues: Sequence[QueueSpec] = (),
                remote_template: Optional[str] = None,
                queue_template: Optional[str] = None,
                acquire_timeout: Optional[float] = None
                ) -> List[ProbeResult]:
    """Probe every configured node and queue, in listed order."""
    results: List[ProbeResult] = []
    for source in worker_sources(nodes, queues, remote_template,
                                 queue_template,
                                 acquire_timeout=acquire_timeout):
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
