"""Shared parallel filesystem with server contention.

Block reads are the dominant I/O in all three algorithms.  The model:

* the filesystem has ``io_servers`` independent servers;
* a read picks the server that frees up earliest (ideal load balancing,
  which flatters redundant I/O — real Lustre striping does worse);
* the read occupies that server for ``nbytes / io_bandwidth`` seconds after
  a fixed ``io_latency`` request setup;
* the issuing rank *blocks* for the whole duration and the elapsed time is
  charged to its ``io`` timer, matching the paper's "time spent reading
  blocks from disk" metric.

Contention is what keeps Load-On-Demand's redundant reads from being free:
when many ranks re-read the same blocks, server queues grow and every read
slows down, reproducing the order-of-magnitude I/O-time gap in Figure 6.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.engine import Engine, Request, Sleep
from repro.sim.machine import MachineSpec
from repro.sim.metrics import RankMetrics, TimerCategory


class FileSystem:
    """The simulated shared filesystem; one instance per simulation."""

    def __init__(self, engine: Engine, spec: MachineSpec,
                 metrics: Dict[int, RankMetrics],
                 obs: Optional[Recorder] = None) -> None:
        self.engine = engine
        self.spec = spec
        self.metrics = metrics
        self.obs = NULL_RECORDER if obs is None else obs
        self._server_busy_until: List[float] = [0.0] * spec.io_servers
        self.total_reads = 0
        self.total_bytes = 0
        self.total_wait = 0.0  # queueing delay beyond raw service time

    def read(self, rank: int,
             nbytes: int) -> Generator[Request, Any, float]:
        """Blocking read of ``nbytes`` issued by ``rank``.

        Returns the elapsed simulated time of the read.  Must be invoked
        with ``yield from`` inside a simulated process.
        """
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        now = self.engine.now
        # Least-loaded server; ties go to the lowest index (``index``
        # finds the first), for determinism.
        busy = self._server_busy_until
        free_at = min(busy)
        server = busy.index(free_at)
        request_ready = now + self.spec.io_latency
        start = max(request_ready, free_at)
        service = self.spec.read_service_time(nbytes)
        finish = start + service
        busy[server] = finish

        elapsed = finish - now
        queued = start - request_ready
        self.total_reads += 1
        self.total_bytes += nbytes
        self.total_wait += queued

        obs = self.obs
        attrs = None
        if obs.enabled:
            attrs = {"nbytes": nbytes, "queued": queued, "server": server}
            reg = obs.registry
            reg.counter("io.reads").inc()
            reg.histogram("io.read_seconds").observe(elapsed)
            reg.histogram("io.queue_delay").observe(queued)
        try:
            if elapsed > 0:
                yield Sleep(elapsed)
        finally:
            obs.charge(rank, "io.read", TimerCategory.IO, self.metrics[rank],
                       now, self.engine.now, attrs)
        return elapsed

    @property
    def mean_queue_delay(self) -> float:
        """Average queueing delay per read (seconds)."""
        if self.total_reads == 0:
            return 0.0
        return self.total_wait / self.total_reads
