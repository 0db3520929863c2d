"""Wire protocol of the parallel algorithms.

Every payload that crosses the simulated network is one of these small
slotted records, neither frozen nor hashable: the receiver owns a payload
once it is delivered.  Sizes are modelled explicitly (``wire_nbytes``)
because the relative cost of message kinds is load-bearing for the
paper's results: streamline transfers carry geometry and dominate;
control traffic (status, assignments, counts) is small but frequent.

Message kinds
-------------
``streamline``     one or more curves handed to another rank
``count``          terminated-count delta (Static's global count; hybrid
                   master -> master 0 reporting)
``done``           termination broadcast
``status``         hybrid slave -> master state report (Algorithm 1)
``assign``         hybrid master -> slave: N seeds in one block
``load``           hybrid master -> slave: Load rule
``send_force``     hybrid master -> slave: Send_force rule
``send_hint``      hybrid master -> slave: Send_hint rule
``seed_request`` / ``seed_grant``   master <-> master work balancing
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.integrate.streamline import Streamline
from repro.storage.costmodel import DataCostModel

KIND_STREAMLINE = "streamline"
KIND_COUNT = "count"
KIND_DONE = "done"
KIND_STATUS = "status"
KIND_ASSIGN = "assign"
KIND_LOAD = "load"
KIND_SEND_FORCE = "send_force"
KIND_SEND_HINT = "send_hint"
KIND_SEED_REQUEST = "seed_request"
KIND_SEED_GRANT = "seed_grant"


@dataclass(slots=True)
class StreamlinePacket:
    """One or more in-flight streamlines."""

    lines: List[Streamline]

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return sum(cost.streamline_wire_nbytes(l.n_vertices)
                   for l in self.lines)


@dataclass(slots=True)
class CountDelta:
    """Terminated-streamline count delta toward the global tally."""

    delta: int

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes


@dataclass(slots=True)
class Done:
    """Terminate broadcast."""

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes


@dataclass(slots=True)
class SlaveStatus:
    """Hybrid slave -> master state report.

    Matches the paper's description: "the set of streamlines owned by each
    slave, which blocks those streamlines currently intersect, which blocks
    are currently loaded into memory on that slave, and how many streamlines
    are currently being integrated."
    """

    slave: int
    lines_by_block: Dict[int, int]   # waiting + advanceable, per block
    loaded_blocks: Tuple[int, ...]
    advanceable: int                 # lines in currently-loaded blocks
    terminated_delta: int

    def wire_nbytes(self, cost: DataCostModel) -> int:
        # Header + ~12 B per (block, count) entry + block-id list.
        return (cost.message_header_nbytes
                + 12 * len(self.lines_by_block)
                + 8 * len(self.loaded_blocks))


@dataclass(slots=True)
class AssignSeeds:
    """Master -> slave: integrate these seeds (Assign_loaded /
    Assign_unloaded; the slave loads ``block_id`` if it lacks it)."""

    block_id: int
    sids: Tuple[int, ...]
    seeds: np.ndarray  # (n, 3)

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes + 32 * len(self.sids)


@dataclass(slots=True)
class LoadBlock:
    """Master -> slave: Load rule."""

    block_id: int

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes


@dataclass(slots=True)
class SendForce:
    """Master -> slave S1: send your streamlines in ``block_id`` to S2."""

    block_id: int
    dest: int

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes


@dataclass(slots=True)
class SendHint:
    """Master -> slave S1: when convenient, offload streamlines in the
    given blocks to ``dest`` (S1 may ignore it — paper's autonomy)."""

    block_ids: Tuple[int, ...]
    dest: int

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes + 8 * len(self.block_ids)


@dataclass(slots=True)
class SeedRequest:
    """Master -> master: my slaves are starving, share seeds."""

    requester: int

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes


@dataclass(slots=True)
class SeedGrant:
    """Master -> master: reply to a :class:`SeedRequest` (possibly empty)."""

    by_block: Dict[int, Tuple[Tuple[int, ...], np.ndarray]]
    # block_id -> (sids, seed coordinates)

    def n_seeds(self) -> int:
        return sum(len(sids) for sids, _ in self.by_block.values())

    def wire_nbytes(self, cost: DataCostModel) -> int:
        return cost.message_header_nbytes + 32 * self.n_seeds()
