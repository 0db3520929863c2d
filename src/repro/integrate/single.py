"""Serial reference integration (no simulator, no parallel algorithm).

It validates the distributed algorithms — parallelization must not change
the numerics, so every algorithm reproduces these curves bit for bit —
and serves examples that just want streamline geometry.  Like the
trajectory bank's trace, it locates every seed once and advances all
in-domain curves to termination in one :func:`advance_pool` call over a
growing :class:`BlockPool` that samples each block on first touch.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.fields.base import VectorField
from repro.fields.sampling import sample_block
from repro.integrate.config import IntegratorConfig
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import Status, Streamline, make_streamlines
from repro.mesh.block import Block
from repro.mesh.decomposition import Decomposition


def integrate_single(field: VectorField, decomposition: Decomposition,
                     seeds: np.ndarray,
                     cfg: Optional[IntegratorConfig] = None,
                     blocks: Optional[Dict[int, Block]] = None
                     ) -> List[Streamline]:
    """Integrate streamlines serially over a block-decomposed field.

    ``seeds`` is ``(k, 3)``; a seed outside the domain gives a streamline
    terminated ``OUT_OF_BOUNDS`` with no steps.  Blocks are sampled from
    ``field`` on first touch into ``blocks`` (a cache callers may share,
    so repeated calls re-sample nothing) unless it already holds them.
    Returns the finished streamlines in seed order.
    """
    cfg = cfg or IntegratorConfig()
    cache: Dict[int, Block] = blocks if blocks is not None else {}

    def load(block_id: int) -> Block:
        if block_id not in cache:
            cache[block_id] = sample_block(field, decomposition.info(block_id))
        return cache[block_id]

    lines = make_streamlines(seeds)
    bids = decomposition.locate_many(
        np.array([line.seed for line in lines]).reshape(-1, 3))
    for line, bid in zip(lines, bids.tolist()):
        line.block_id = bid
        if bid < 0:
            line.terminate(Status.OUT_OF_BOUNDS)
    active = [line for line in lines if line.block_id >= 0]
    if active:
        pool = BlockPool([load(active[0].block_id)], loader=load,
                         n_blocks=decomposition.n_blocks)
        advance_pool(active, pool, decomposition.domain, decomposition, cfg)
    return lines
