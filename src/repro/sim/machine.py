"""Machine cost model for the simulated cluster.

The :class:`MachineSpec` collects every knob that prices the work the
streamline algorithms generate: how long an integration step takes, how long
it takes to post and transport a message, how fast the shared parallel
filesystem serves block reads, and how much memory each rank has.

Defaults are loosely calibrated to a 2009-era Cray XT5 node (JaguarPF, the
machine used in the paper): ~2 GB of usable memory per core, a Lustre-like
shared filesystem, and a SeaStar-like interconnect.  Absolute values do not
need to match the paper — only the *relative* economics matter (one block
read costs as much as many thousands of integration steps; posting a message
is cheap but not free; geometry-heavy messages cost real bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class MachineSpec:
    """Cost model of the simulated distributed-memory machine.

    Attributes
    ----------
    n_ranks:
        Number of simulated MPI ranks (processors).
    seconds_per_step:
        Simulated cost of one adaptive step of one particle.  This prices
        a *reproduction-scale* step: blocks are sampled at reduced
        resolution, so one step here stands for the ~25 cell-sized steps
        a Dormand-Prince tracer takes to cover the same distance at the
        paper's 100^3-cells-per-block resolution.  Keeping this large
        relative to message posting and block reads preserves the
        paper's compute-dominant regime (DESIGN.md §7).
    comm_latency:
        One-way network latency per message (seconds).
    comm_bandwidth:
        Network bandwidth per link, bytes/second.
    comm_post_overhead:
        CPU time charged to the *sender* per posted send and to the
        *receiver* per drained message.  This is what the paper's
        "communication time" metric measures (time to post sends/receives
        plus management), so it accrues to the ``comm`` timer.
    comm_post_per_byte:
        CPU time charged per payload byte when posting (copy/pack cost).
    io_latency:
        Per-read latency of the shared filesystem (seek + RPC), seconds.
    io_bandwidth:
        Aggregate per-server bandwidth of the filesystem, bytes/second.
    io_servers:
        Number of filesystem servers.  Concurrent reads beyond this queue,
        which is how redundant Load-On-Demand I/O stops scaling.
    memory_bytes:
        Usable memory per rank, for block cache + buffered streamlines.
    cache_blocks:
        Upper bound on blocks resident in a rank's LRU cache (the paper's
        "user defined upper bound").  ``None`` derives a bound from
        ``memory_bytes`` and the block size at run time.
    """

    n_ranks: int = 64
    seconds_per_step: float = 2.0e-2
    comm_latency: float = 2.0e-5
    comm_bandwidth: float = 1.0e9
    comm_post_overhead: float = 1.0e-5
    comm_post_per_byte: float = 1.0e-7
    io_latency: float = 4.0e-3
    io_bandwidth: float = 3.0e8
    io_servers: int = 16
    memory_bytes: int = 1 << 31  # 2 GiB
    cache_blocks: Optional[int] = 140

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.io_servers < 1:
            raise ValueError(f"io_servers must be >= 1, got {self.io_servers}")
        for name in ("seconds_per_step", "comm_latency", "comm_bandwidth",
                     "comm_post_overhead", "comm_post_per_byte",
                     "io_latency", "io_bandwidth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.comm_bandwidth == 0 or self.io_bandwidth == 0:
            raise ValueError("bandwidths must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.cache_blocks is not None and self.cache_blocks < 1:
            raise ValueError("cache_blocks must be >= 1 when given")

    def with_ranks(self, n_ranks: int) -> "MachineSpec":
        """Copy of this spec with a different rank count."""
        return replace(self, n_ranks=n_ranks)

    def cache_capacity(self, block_nbytes: int) -> int:
        """Blocks a rank's LRU cache holds: :attr:`cache_blocks`, or when
        that is ``None`` a quarter of :attr:`memory_bytes` in blocks of
        ``block_nbytes`` (at least one)."""
        if self.cache_blocks is not None:
            return self.cache_blocks
        return max(1, int(0.25 * self.memory_bytes / block_nbytes))

    def post_time(self, nbytes: int) -> float:
        """CPU time to post (pack) a message of ``nbytes``."""
        return self.comm_post_overhead + nbytes * self.comm_post_per_byte

    def read_service_time(self, nbytes: int) -> float:
        """Filesystem server busy time for one read of ``nbytes``."""
        return nbytes / self.io_bandwidth


def jaguar_like(n_ranks: int = 64, **overrides) -> MachineSpec:
    """A :class:`MachineSpec` preset resembling the paper's JaguarPF runs.

    Any field of :class:`MachineSpec` may be overridden by keyword.
    """
    return replace(MachineSpec(n_ranks=n_ranks), **overrides)


def slow_network(n_ranks: int = 64, factor: float = 50.0) -> MachineSpec:
    """Preset with a deliberately slow interconnect (ablation studies)."""
    base = MachineSpec(n_ranks=n_ranks)
    return replace(
        base,
        comm_latency=base.comm_latency * factor,
        comm_bandwidth=base.comm_bandwidth / factor,
        comm_post_overhead=base.comm_post_overhead * factor,
    )


def slow_filesystem(n_ranks: int = 64, factor: float = 20.0) -> MachineSpec:
    """Preset with a deliberately slow filesystem (ablation studies)."""
    base = MachineSpec(n_ranks=n_ranks)
    return replace(
        base,
        io_latency=base.io_latency * factor,
        io_bandwidth=base.io_bandwidth / factor,
        io_servers=max(1, base.io_servers // 4),
    )
