"""Bundles the simulated machine's per-run singletons.

A :class:`Cluster` wires together the engine, network, filesystem, and the
per-rank metrics/memory accounts for one simulated run, and hands each
algorithm rank a :class:`RankContext` with everything it needs: its comm
endpoint, the shared filesystem, its memory account, its metrics, and a
``compute()`` helper that both advances simulated time and charges the
compute timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.engine import Engine, Request, Sleep
from repro.sim.filesystem import FileSystem
from repro.sim.machine import MachineSpec
from repro.sim.memory import MemoryAccount
from repro.sim.metrics import RankMetrics, TimerCategory
from repro.sim.network import Comm, Network
from repro.sim.trace import NULL_TRACE, Trace


class Cluster:
    """One simulated machine instance for one run."""

    def __init__(self, spec: MachineSpec, trace: Optional[Trace] = None,
                 obs: Optional[Recorder] = None) -> None:
        self.spec = spec
        self.engine = Engine()
        if obs is None:
            obs = Recorder(enabled=False)
        self.obs = obs
        obs.bind(self.engine)
        self.metrics: Dict[int, RankMetrics] = {
            r: RankMetrics(rank=r) for r in range(spec.n_ranks)}
        self.network = Network(self.engine, spec, self.metrics, obs=obs)
        self.filesystem = FileSystem(self.engine, spec, self.metrics, obs=obs)
        self.memory: Dict[int, MemoryAccount] = {
            r: MemoryAccount(rank=r, capacity=spec.memory_bytes)
            for r in range(spec.n_ranks)}
        # Note: an empty Trace is falsy (len 0), so test against None.
        # Only caller-supplied traces get the clock bound — the shared
        # NULL_TRACE singleton must never be rebound to one cluster.
        if trace is None:
            trace = NULL_TRACE
        else:
            trace._clock = lambda: self.engine.now
        self.trace = trace

    def context(self, rank: int) -> "RankContext":
        """Build the per-rank context handed to algorithm code."""
        if not 0 <= rank < self.spec.n_ranks:
            raise ValueError(f"rank {rank} out of range "
                             f"[0, {self.spec.n_ranks})")
        return RankContext(
            rank=rank,
            spec=self.spec,
            comm=self.network.endpoint(rank),
            filesystem=self.filesystem,
            memory=self.memory[rank],
            metrics=self.metrics[rank],
            trace=self.trace,
            engine=self.engine,
            obs=self.obs,
        )

    def run(self, max_events: Optional[int] = None) -> float:
        """Run the simulation to completion; returns wall-clock time."""
        wall = self.engine.run(max_events=max_events)
        for rank, m in self.metrics.items():
            mem = self.memory[rank]
            m.peak_memory_bytes = mem.peak
        return wall


@dataclass
class RankContext:
    """Everything one simulated rank needs to execute algorithm code."""

    rank: int
    spec: MachineSpec
    comm: Comm
    filesystem: FileSystem
    memory: MemoryAccount
    metrics: RankMetrics
    trace: Trace
    engine: Engine
    obs: Recorder = NULL_RECORDER

    @property
    def now(self) -> float:
        return self.engine.now

    def compute(self, steps: int,
                sids: Optional[Any] = None) -> Generator[Request, Any, float]:
        """Charge ``steps`` integration steps of compute time.

        Returns the simulated seconds consumed.  Must be called with
        ``yield from``.  ``sids`` (optional, recording-only) tags the
        recorded span with the streamline ids advanced by this call so
        the per-seed lineage reconstruction can attribute the interval;
        callers should only build the list when ``obs.enabled``.
        """
        if steps < 0:
            raise ValueError(f"negative step count: {steps}")
        seconds = steps * self.spec.seconds_per_step
        obs = self.obs
        attrs = None
        if obs.enabled:
            attrs = ({"steps": steps} if sids is None
                     else {"steps": steps, "sids": sorted(sids)})
        engine = self.engine
        start = engine.now
        try:
            if seconds > 0:
                yield Sleep(seconds)
        finally:
            obs.charge(self.rank, "compute.advect", TimerCategory.COMPUTE,
                       self.metrics, start, engine.now, attrs)
        self.metrics.steps += steps
        return seconds

    def read_block_bytes(self, nbytes: int) -> Generator[Request, Any, float]:
        """Blocking filesystem read charged to this rank's I/O timer."""
        return (yield from self.filesystem.read(self.rank, nbytes))
