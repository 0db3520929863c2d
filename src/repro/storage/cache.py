"""Per-rank LRU block cache with load/purge accounting.

"Because not all the blocks will fit into memory, a LRU cache, with a user
defined upper bound, is implemented to handle block purging" (paper §5).
The load/purge counters feed the block-efficiency metric
E = (B_L - B_P) / B_L (Eq. 2).

The cache stores :class:`~repro.mesh.block.Block` objects keyed by block id.
It does not talk to the simulator: callers decide when a miss costs
simulated I/O time and how modelled memory is charged (the cache exposes
eviction results so callers can free the evicted blocks' memory).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional

from repro.mesh.block import Block


class LRUBlockCache:
    """Bounded LRU mapping ``block_id -> Block``.

    Attributes
    ----------
    capacity:
        Maximum resident blocks (the paper's user-defined upper bound).
    loads / purges / hits / misses:
        Lifetime counters; ``loads`` counts insertions (i.e. block reads),
        ``purges`` counts evictions.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._blocks: "OrderedDict[int, Block]" = OrderedDict()
        self.loads = 0
        self.purges = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._blocks

    def __iter__(self) -> Iterator[int]:
        """Resident block ids, LRU-first."""
        return iter(self._blocks)

    @property
    def block_efficiency(self) -> float:
        """Eq. (2) over this cache's lifetime (1.0 if nothing loaded)."""
        if self.loads == 0:
            return 1.0
        return (self.loads - self.purges) / self.loads

    def get(self, block_id: int) -> Optional[Block]:
        """Resident block or None; touches LRU order on hit."""
        block = self._blocks.get(block_id)
        if block is None:
            self.misses += 1
            return None
        self._blocks.move_to_end(block_id)
        self.hits += 1
        return block

    def peek(self, block_id: int) -> Optional[Block]:
        """Like :meth:`get` but without touching LRU order or counters."""
        return self._blocks.get(block_id)

    def put(self, block: Block) -> List[Block]:
        """Insert a freshly-loaded block; returns evicted blocks (0 or 1).

        Inserting an already-resident id is an error — callers must
        :meth:`get` first (counting a load that did not happen would
        corrupt the block-efficiency metric).
        """
        bid = block.block_id
        if bid in self._blocks:
            raise ValueError(f"block {bid} already resident")
        evicted: List[Block] = []
        while len(self._blocks) >= self.capacity:
            _, old = self._blocks.popitem(last=False)
            self.purges += 1
            evicted.append(old)
        self._blocks[bid] = block
        self.loads += 1
        return evicted

    def evict(self, block_id: int) -> Optional[Block]:
        """Explicitly evict one block (counts as a purge if present)."""
        block = self._blocks.pop(block_id, None)
        if block is not None:
            self.purges += 1
        return block

    def clear(self) -> List[Block]:
        """Evict everything (each counts as a purge)."""
        evicted = list(self._blocks.values())
        self.purges += len(evicted)
        self._blocks.clear()
        return evicted
