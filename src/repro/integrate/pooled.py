"""Pooled multi-block advection: the production compute kernel.

``advance_pool`` advances *every* active streamline resident in a set of
loaded blocks — together, in lockstep rounds — until each terminates or
crosses out of the loaded set.  This matches the paper's workers more
closely than per-block batching ("each processor integrates all streamlines
to the edge of the loaded blocks") and it is the key NumPy optimization:

* all loaded blocks (same node dims) are stacked into one flat buffer, so
  one gather interpolates every particle regardless of which block it is
  in — the per-round cost is independent of how many blocks are involved;
* particles that cross between two *loaded* blocks keep advancing inside
  the kernel (slot switch), never bouncing back to the per-rank scheduler.

Trajectories are bit-identical to the straight-line NumPy kernel this one
replaced: ``tests/test_kernel_equivalence.py`` pins them to a golden
fixture recorded before the fused kernels, and the fused sampler to the
naive trilinear reference ``_naive_sample``.

Hot-path structure
------------------
The dominant cost of advection at reproduction scale is per-*call* NumPy
overhead, not per-element arithmetic (batches are tiny — the regime
"A Guide to Particle Advection Performance" identifies as the advection
bottleneck).  Four mechanisms keep it down:

* a run advances every curve in one wide call (the trajectory bank,
  :mod:`repro.integrate.bank`, which may run it in a forked tracer)
  over one :class:`BlockPool` that stacks each block once, the first
  time a curve enters it;
* :class:`PoolSampler` is a fused trilinear kernel over component-major
  workspaces (``(3, k)`` coordinates, ``(8, k)`` weights, ``(8, 3, k)``
  corner values): one element gather of every corner component, one
  weight multiply and one ``np.add.reduce`` over the corner axis, every
  ufunc looping over the ``k`` particles and writing into preallocated
  workspaces (reused across the 7 DOPRI5 stages of a step and across
  compaction rounds).  ``bind(slots)`` re-points the per-particle block
  assignment without rebuilding closures or copying pool geometry;
* a crossing curve's new slot comes from the pool's block -> slot table
  (:meth:`BlockPool.slots_for`), one lookup for all of a round's
  crossings;
* the round loop calls :meth:`Dopri5.attempt_steps_prepared` —
  validation runs once per advance call, not once per round.

All fused chains evaluate the exact expression trees of the original
straight-line NumPy code, so trajectories are bit-for-bit unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.integrate import dopri5 as _d5
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import (Dopri5, adapt_h, fast_einsum,
                                    validate_batch)
from repro.integrate.streamline import Status, Streamline
from repro.mesh.block import Block, corner_offsets
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition

_CODE_ACTIVE = 0
_CODE_EXITED = 1
_CODE_TO_STATUS = {
    2: Status.OUT_OF_BOUNDS,
    3: Status.MAX_STEPS,
    4: Status.ZERO_VELOCITY,
    5: Status.STEP_UNDERFLOW,
}

#: Largest batch the pure-Python scalar round loop handles.  Below this
#: size, per-call NumPy dispatch costs more than doing the arithmetic in
#: Python floats (every op on a k<=4 batch is dominated by fixed call
#: overhead); above it, the vectorized path wins.
_SCALAR_MAX_K = 4

# DOPRI5 tableau rows as (stage index, coefficient) pairs, for the scalar
# path's accumulation loops.  Zero coefficients are omitted, exactly like
# the unrolled array chains in dopri5.py.
_D5_POS_ROWS = (
    ((0, _d5.A21),),
    ((0, _d5.A31), (1, _d5.A32)),
    ((0, _d5.A41), (1, _d5.A42), (2, _d5.A43)),
    ((0, _d5.A51), (1, _d5.A52), (2, _d5.A53), (3, _d5.A54)),
    ((0, _d5.A61), (1, _d5.A62), (2, _d5.A63), (3, _d5.A64), (4, _d5.A65)),
    ((0, _d5.B1), (2, _d5.B3), (3, _d5.B4), (4, _d5.B5), (5, _d5.B6)),
)
_D5_ERR_ROW = ((0, _d5.E1), (2, _d5.E3), (3, _d5.E4), (4, _d5.E5),
               (5, _d5.E6), (6, _d5.E7))


class PoolSampler:
    """Fused trilinear velocity sampler over a :class:`BlockPool`.

    One sampler serves any batch size: :meth:`bind` fixes the per-particle
    slot assignment (gathering each particle's block origin/scale/base
    offset into reused buffers), after which the instance is a
    ``VelocityFn`` whose every evaluation runs a minimal-op kernel —
    one corner gather plus one multiply and one ``np.add.reduce`` over
    the corner axis, with all intermediates written into preallocated
    workspaces.

    The workspaces are component-major: coordinates, cell indices and
    fractional offsets are ``(3, k)``, the corner weights ``(8, k)`` and
    the gathered corner values ``(8, 3, k)``, so every ufunc's inner loop
    runs over the ``k`` particles instead of over 2 or 3 components.
    Each batch size's views are carved from the front of one flat float
    buffer and one flat int buffer (grown geometrically), so a run that
    binds many distinct ``k`` holds the workspace of the largest only.
    The views are memoized per ``k``: DOPRI5 calls the bound sampler 7
    times per round with the same ``k``, and compaction revisits the
    same sizes across rounds, so ``__call__`` itself performs only
    ufunc/gather calls — no view construction, no allocation.

    The computation is bit-for-bit identical to the straightforward
    per-call NumPy implementation (same clipping, truncation, and
    multiply/accumulate orders; the corner reduction runs along the
    *outer* axis, an elementwise ``0 + c0 + ... + c7`` in corner order
    like ``einsum("ke,kec->kc")``).  Reducing along an inner axis would
    not be: NumPy sums a contiguous inner axis pairwise.

    :class:`Dopri5` detects :attr:`writes_out` and passes ``out=`` stage
    buffers, making a full Runge-Kutta step allocation-free.
    """

    #: Accepts ``out=`` (the protocol :class:`Dopri5` checks).
    writes_out = True

    # Per-particle rows of each workspace, in buffer order: lo, scale,
    # g, st, m1, w, corners (float) and corner_base, icell, base, idx
    # (int).
    _F_ROWS = (3, 3, 3, 6, 4, 8, 24)
    _I_ROWS = (24, 3, 1, 24)

    def __init__(self, pool: "BlockPool") -> None:
        self.pool = pool
        nx, ny, nz = pool.dims
        self._cell_max = np.array([[nx - 2], [ny - 2], [nz - 2]],
                                  dtype=np.int64)
        # Element strides into pool.flat.reshape(-1): component c of node
        # (ix, iy, iz) of a slot sits 3 * ((ix*ny + iy)*nz + iz) + c past
        # the slot's first element.
        self._axis_strides = 3 * np.array([ny * nz, nz, 1], dtype=np.int64)
        self._corner_elems = (3 * pool.offsets[:, None, None]
                              + np.arange(3, dtype=np.int64)[:, None])
        self._node_max = pool.node_max[:, None]
        self._fbuf = np.empty(0, dtype=np.float64)
        self._ibuf = np.empty(0, dtype=np.int64)
        self._k = 0
        self._views: Dict[int, tuple] = {}
        self._b: Optional[tuple] = None
        self._flat: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        """Bytes of the buffers behind every memoized workspace view."""
        held = {}
        for bundle in self._views.values():
            for view in bundle:
                owner = view if view.base is None else view.base
                held[id(owner)] = owner.nbytes
        return sum(held.values())

    def _reserve(self, k: int) -> None:
        """Grow workspaces to hold batches of up to ``k`` particles."""
        cap = len(self._ibuf) // sum(self._I_ROWS)
        if k <= cap:
            return
        cap = max(k, 2 * cap)
        self._fbuf = np.empty(sum(self._F_ROWS) * cap, dtype=np.float64)
        self._ibuf = np.empty(sum(self._I_ROWS) * cap, dtype=np.int64)
        self._views = {}  # old views point into the replaced buffers

    def _bundle(self, k: int) -> tuple:
        """The memoized view bundle for batch size ``k``, carved from the
        front of the flat buffers."""
        def carve(buf, rows):
            return np.split(buf[:sum(rows) * k], np.cumsum(rows[:-1]) * k)

        lo, scale, g, st, m1, w, corners = carve(self._fbuf, self._F_ROWS)
        corner_base, icell, base, idx = carve(self._ibuf, self._I_ROWS)
        # st[0] holds (sx, sy, sz), st[1] holds (tx, ty, tz).
        st = st.reshape(2, 3, k)
        m1 = m1.reshape(2, 2, k)
        return (
            lo.reshape(3, k), scale.reshape(3, k),
            corner_base.reshape(8, 3, k), g.reshape(3, k),
            icell.reshape(3, k),
            st[1], st[0],                                # t, s
            st[:, None, 0], st[None, :, 1],              # weight factors x, y
            m1, m1[:, :, None], st[None, None, :, 2],    # xy, z
            w.reshape(2, 2, 2, k), w.reshape(8, 1, k),
            base, idx.reshape(8, 3, k), corners.reshape(8, 3, k),
        )

    def bind(self, slots: np.ndarray) -> "PoolSampler":
        """Fix the per-particle slot assignment for subsequent calls.

        Gathers each particle's block parameters into reused buffers;
        returns ``self`` so ``sampler.bind(slots)`` can be passed straight
        to :meth:`Dopri5.attempt_steps_prepared`.
        """
        k = len(slots)
        self._reserve(k)
        self._k = k
        b = self._views.get(k)
        if b is None:
            b = self._views[k] = self._bundle(k)
        self._b = b
        lo, scale, corner_base, base = b[0], b[1], b[2], b[14]
        pool = self.pool
        # A pool that grows later copies its rows into new arrays; the
        # bound slots' rows are the same in the old ones.
        self._flat = pool.flat.reshape(-1)
        np.take(pool.lo.T, slots, axis=1, out=lo, mode="clip")
        np.take(pool.scale.T, slots, axis=1, out=scale, mode="clip")
        # Element index of each corner component at the slot's first
        # node; each call adds its cell's offset.
        np.take(pool.slot_base, slots, out=base, mode="clip")
        np.multiply(base, 3, out=base)
        np.add(base, self._corner_elems, out=corner_base)
        return self

    def __call__(self, points: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Interpolated velocities at ``points`` (``(k, 3)``, matching the
        bound slot count).  ``out`` receives the result when given."""
        k = self._k
        if points.shape != (k, 3):
            raise ValueError(f"sampler bound to {k} slots wants ({k}, 3) "
                             f"points, got shape {points.shape}")
        (lo, scale, corner_base, g, icell, t, s, wfx, wfy, m1, m1z, wfz,
         w4, w_col, base, idx, corners) = self._b
        if out is None:
            out = np.empty((k, 3), dtype=np.float64)

        # Continuous node coordinates, clipped: ((p - lo) * scale) in
        # [0, node_max].
        np.subtract(points.T, lo, out=g)
        np.multiply(g, scale, out=g)
        np.minimum(g, self._node_max, out=g)
        np.maximum(g, 0.0, out=g)

        # Cell index: truncation == astype(int64) for the clipped g >= 0,
        # then clamp to the last cell.
        np.copyto(icell, g, casting="unsafe")
        np.minimum(icell, self._cell_max, out=icell)

        # Fractional offsets t and their complements s = 1 - t.
        np.subtract(g, icell, out=t)
        np.subtract(1.0, t, out=s)

        # w[c] = {s,t}x * {s,t}y * {s,t}z via two broadcasted products;
        # grouping matches the scalar form ((x*y) * z), corner order
        # matches corner_offsets (z fastest, then y, then x).
        np.multiply(wfx, wfy, out=m1)
        np.multiply(m1z, wfz, out=w4)

        # Flat element index of every corner component (matmul == the
        # explicit ((ix*ny + iy)*nz + iz) * 3 integer arithmetic).
        np.matmul(self._axis_strides, icell, out=base)
        np.add(base, corner_base, out=idx)
        self._flat.take(idx, out=corners, mode="clip")

        # Weighted corners, summed over the outer corner axis in corner
        # order (bit-identical to einsum("ke,kec->kc")).
        np.multiply(corners, w_col, out=corners)
        np.add.reduce(corners, axis=0, out=out.T)
        return out


class BlockPool:
    """A set of same-shaped loaded blocks stacked for single-gather
    interpolation.

    Built with a ``loader`` (``block_id -> Block``) the pool grows: a
    curve crossing into a block it has not stacked yet makes it load that
    block and append a slot (:meth:`slot_for`), so no curve ever exits it.
    Without one the block set is fixed.  The stacked arrays may carry
    spare rows past ``len(pool)`` (at most ``n_blocks`` slots in all when
    the loader's block count is given); a slot's rows never move or change.
    ``slot_of`` maps block id to slot, ``-1`` for a block not stacked.
    """

    def __init__(self, blocks: Sequence[Block],
                 loader: Optional[Callable[[int], Block]] = None,
                 n_blocks: Optional[int] = None) -> None:
        blocks = list(blocks)
        if not blocks:
            raise ValueError("BlockPool needs at least one block")
        nx, ny, nz = (int(n) for n in blocks[0].data.shape[:3])
        self.dims = (nx, ny, nz)
        self.node_max = blocks[0]._node_max
        self.offsets = corner_offsets(ny, nz)
        self.loader = loader
        self.n_blocks = n_blocks
        self.blocks: List[Block] = []
        self.slot_of = np.full(n_blocks or 0, -1, dtype=np.int64)
        # Slot -> its node data as a Python float list, for the scalar
        # rounds; built on first use and dropped with the pool.
        self._scalar_flat: Dict[int, list] = {}
        self._reserve(len(blocks))
        for b in blocks:
            self.add(b)

    def __len__(self) -> int:
        return len(self.blocks)

    def _reserve(self, cap: int) -> None:
        """(Re)allocate the stacked arrays for ``cap`` slots, keeping the
        filled rows."""
        n_nodes = self.dims[0] * self.dims[1] * self.dims[2]
        for name, shape, dtype in (
                ("flat", (cap * n_nodes, 3), np.float64),
                ("lo", (cap, 3), np.float64),
                ("scale", (cap, 3), np.float64),
                ("block_lo", (cap, 3), np.float64),
                ("block_hi", (cap, 3), np.float64),
                ("block_ids", (cap,), np.int64)):
            new = np.empty(shape, dtype=dtype)
            old = getattr(self, name, None)
            if old is not None:
                new[:len(old)] = old
            setattr(self, name, new)
        self.slot_base = np.arange(cap, dtype=np.int64) * n_nodes

    def _cover(self, n: int) -> None:
        """Extend ``slot_of`` to block ids below ``n``."""
        grow = n - len(self.slot_of)
        if grow > 0:
            self.slot_of = np.concatenate(
                [self.slot_of, np.full(grow, -1, dtype=np.int64)])

    def add(self, block: Block) -> int:
        """Stack one more block; returns its slot."""
        if block.data.shape[:3] != self.dims:
            raise ValueError(
                "all pool blocks must share node dims; got "
                f"{block.data.shape[:3]} vs {self.dims}")
        s = len(self.blocks)
        if s == len(self.block_ids):
            # Outgrown arrays tend to stay resident while spare rows are
            # untouched pages: grow in few, large steps, up to the store.
            self._reserve(min(4 * s, self.n_blocks or 4 * s))
        base = int(self.slot_base[s])
        self.flat[base:base + len(block._flat)] = block._flat
        self.lo[s] = block._lo
        self.scale[s] = block._node_scale
        self.block_lo[s] = block.info.bounds.lo_array
        self.block_hi[s] = block.info.bounds.hi_array
        self.block_ids[s] = block.block_id
        self.blocks.append(block)
        self._cover(block.block_id + 1)
        self.slot_of[block.block_id] = s
        return s

    def slot_for(self, block_id: int) -> int:
        """Slot of ``block_id``; a growing pool stacks a missing block
        first, a fixed one answers ``-1``."""
        table = self.slot_of
        s = table.item(block_id) if 0 <= block_id < len(table) else -1
        if s < 0 and self.loader is not None:
            s = self.add(self.loader(block_id))
        return s

    def slots_for(self, block_ids: np.ndarray) -> np.ndarray:
        """:meth:`slot_for` of every id in ``block_ids`` (all ``>= 0``);
        a growing pool stacks the missing blocks in order of first
        appearance, as one :meth:`slot_for` call per id would."""
        if len(block_ids):
            self._cover(int(block_ids.max()) + 1)
        slots = self.slot_of[block_ids]
        if self.loader is not None:
            missing = slots < 0
            if missing.any():
                for bid in dict.fromkeys(block_ids[missing].tolist()):
                    self.add(self.loader(bid))
                slots = self.slot_of[block_ids]
        return slots

    def sampler(self) -> PoolSampler:
        """A fused sampler over this pool (rebind per round with
        :meth:`PoolSampler.bind`); not kept, so no pool-sampler cycle."""
        return PoolSampler(self)

    def scalar_slot(self, s: int) -> tuple:
        """Python-float context of slot ``s`` for the scalar rounds:
        ``((lox, loy, loz, scx, scy, scz, flat), (block_lo, block_hi))``,
        ``flat`` being the block's node data as a float list, built on
        the slot's first scalar round and held by the pool only — the
        blocks outlive it in the store, the lists do not.
        """
        b = self.blocks[s]
        flat = self._scalar_flat.get(s)
        if flat is None:
            flat = self._scalar_flat[s] = b._flat.ravel().tolist()
        return ((*b._lo.tolist(), *b._node_scale.tolist(), flat),
                (self.block_lo[s].tolist(), self.block_hi[s].tolist()))


def _d5_step_scalar(sctx: tuple, pctx: tuple, x: float, y: float, z: float,
                    hcur: float, rtol: float, atol: float,
                    k1c: Optional[tuple]) -> tuple:
    """One DOPRI5 trial step for a single particle, in Python floats.

    Bit-for-bit identical to :meth:`Dopri5.attempt_steps_prepared` over a
    bound :class:`PoolSampler` with ``k == 1``: Python float arithmetic is
    the same IEEE-754 double arithmetic as NumPy's elementwise loops, the
    trilinear accumulation below follows the sampler's sequential corner
    order, and the error norm follows c_einsum's ``(r0²+r2²)+r1²``
    3-element order (all verified empirically by the kernel-equivalence
    tests).  Exists because at ``k <= _SCALAR_MAX_K`` per-call NumPy
    dispatch dominates the actual arithmetic.

    ``k1c``, when given, is a previously computed ``f(x, y, z)`` under the
    same ``pctx`` (an accepted step's 7th stage at the new position, or a
    rejected step's 1st stage at the unchanged one — DOPRI5's FSAL
    property) and replaces the first stage evaluation; the sampler is
    deterministic, so reuse is exact.  Returns
    ``(newx, newy, newz, err, k1, k7)`` with the stage tuples for the
    caller to carry forward.
    """
    (o0, o1, o2, o3, o4, o5, o6, o7,
     nmx, nmy, nmz, cmx, cmy, cmz, nyz, nz) = sctx
    lox, loy, loz, scx, scy, scz, flat = pctx
    kx = [0.0] * 7
    ky = [0.0] * 7
    kz = [0.0] * 7
    qx = x
    qy = y
    qz = z
    newx = newy = newz = 0.0
    jprev = -1
    c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = 0.0
    c8 = c9 = c10 = c11 = c12 = c13 = c14 = c15 = 0.0
    c16 = c17 = c18 = c19 = c20 = c21 = c22 = c23 = 0.0
    for s in range(7):
        if s == 0 and k1c is not None:
            kx[0], ky[0], kz[0] = k1c
            row = _D5_POS_ROWS[0]
            i0, c = row[0]
            ax = kx[i0] * c
            ay = ky[i0] * c
            az = kz[i0] * c
            qx = ax * hcur + x
            qy = ay * hcur + y
            qz = az * hcur + z
            continue
        # Trilinear eval at (qx, qy, qz): clip to node space, truncate to
        # the cell, tensor-product weights in ((a*b)*c) grouping, corners
        # accumulated in z-fastest order — the array kernel's exact ops.
        # Consecutive stages usually land in the same cell, so the 24
        # gathered corner values are memoized on the cell's index into
        # its block's own flat list.
        gx = (qx - lox) * scx
        if gx > nmx:
            gx = nmx
        if gx < 0.0:
            gx = 0.0
        ix = int(gx)
        if ix > cmx:
            ix = cmx
        gy = (qy - loy) * scy
        if gy > nmy:
            gy = nmy
        if gy < 0.0:
            gy = 0.0
        iy = int(gy)
        if iy > cmy:
            iy = cmy
        gz = (qz - loz) * scz
        if gz > nmz:
            gz = nmz
        if gz < 0.0:
            gz = 0.0
        iz = int(gz)
        if iz > cmz:
            iz = cmz
        tx = gx - ix
        ty = gy - iy
        tz = gz - iz
        sx = 1.0 - tx
        sy = 1.0 - ty
        sz = 1.0 - tz
        sxsy = sx * sy
        sxty = sx * ty
        txsy = tx * sy
        txty = tx * ty
        j = (ix * nyz + iy * nz + iz) * 3
        if j != jprev:
            jprev = j
            m = j + o0
            c0 = flat[m]
            c1 = flat[m + 1]
            c2 = flat[m + 2]
            m = j + o1
            c3 = flat[m]
            c4 = flat[m + 1]
            c5 = flat[m + 2]
            m = j + o2
            c6 = flat[m]
            c7 = flat[m + 1]
            c8 = flat[m + 2]
            m = j + o3
            c9 = flat[m]
            c10 = flat[m + 1]
            c11 = flat[m + 2]
            m = j + o4
            c12 = flat[m]
            c13 = flat[m + 1]
            c14 = flat[m + 2]
            m = j + o5
            c15 = flat[m]
            c16 = flat[m + 1]
            c17 = flat[m + 2]
            m = j + o6
            c18 = flat[m]
            c19 = flat[m + 1]
            c20 = flat[m + 2]
            m = j + o7
            c21 = flat[m]
            c22 = flat[m + 1]
            c23 = flat[m + 2]
        w = sxsy * sz
        vx = w * c0
        vy = w * c1
        vz = w * c2
        w = sxsy * tz
        vx += w * c3
        vy += w * c4
        vz += w * c5
        w = sxty * sz
        vx += w * c6
        vy += w * c7
        vz += w * c8
        w = sxty * tz
        vx += w * c9
        vy += w * c10
        vz += w * c11
        w = txsy * sz
        vx += w * c12
        vy += w * c13
        vz += w * c14
        w = txsy * tz
        vx += w * c15
        vy += w * c16
        vz += w * c17
        w = txty * sz
        vx += w * c18
        vy += w * c19
        vz += w * c20
        w = txty * tz
        vx += w * c21
        vy += w * c22
        vz += w * c23
        kx[s] = vx
        ky[s] = vy
        kz[s] = vz
        if s == 6:
            break
        row = _D5_POS_ROWS[s]
        i0, c = row[0]
        ax = kx[i0] * c
        ay = ky[i0] * c
        az = kz[i0] * c
        for i0, c in row[1:]:
            ax += kx[i0] * c
            ay += ky[i0] * c
            az += kz[i0] * c
        if s == 5:
            # new_pos = pos + (incr5 * h)
            newx = x + ax * hcur
            newy = y + ay * hcur
            newz = z + az * hcur
            qx = newx
            qy = newy
            qz = newz
        else:
            qx = ax * hcur + x
            qy = ay * hcur + y
            qz = az * hcur + z
    i0, c = _D5_ERR_ROW[0]
    ex = kx[i0] * c
    ey = ky[i0] * c
    ez = kz[i0] * c
    for i0, c in _D5_ERR_ROW[1:]:
        ex += kx[i0] * c
        ey += ky[i0] * c
        ez += kz[i0] * c
    ex = ex * hcur
    ey = ey * hcur
    ez = ez * hcur
    # scale = atol + rtol * maximum(|pos|, |new_pos|), per component
    ux = abs(x)
    t2 = abs(newx)
    if t2 > ux:
        ux = t2
    uy = abs(y)
    t2 = abs(newy)
    if t2 > uy:
        uy = t2
    uz = abs(z)
    t2 = abs(newz)
    if t2 > uz:
        uz = t2
    rx = ex / (ux * rtol + atol)
    ry = ey / (uy * rtol + atol)
    rz = ez / (uz * rtol + atol)
    err = rx * rx + rz * rz
    err = err + ry * ry
    err = err / 3.0
    return (newx, newy, newz, math.sqrt(err),
            (kx[0], ky[0], kz[0]), (kx[6], ky[6], kz[6]))


def _scalar_rounds(pool: "BlockPool",
                   decomposition: Decomposition,
                   cfg: IntegratorConfig, alive: np.ndarray,
                   pos: np.ndarray, h: np.ndarray, time: np.ndarray,
                   steps: np.ndarray, slot: np.ndarray, codes: np.ndarray,
                   exit_bid: np.ndarray, verts: np.ndarray,
                   nv: np.ndarray, dlo: np.ndarray,
                   dhi: np.ndarray, h_min_edge: float, rounds: int,
                   round_limit: Optional[int], max_rounds: int,
                   result: "PoolResult", tape: "Optional[TrialTape]",
                   ) -> "tuple[int, np.ndarray]":
    """Small-batch rounds of :func:`advance_pool` in Python floats.

    Runs the same lockstep rounds as the array path — one trial step per
    particle per round, identical acceptance, step control, and exit
    classification on identical bit patterns — until every particle stops
    or the round budget runs out.  Returns the updated round count and the
    indices still alive; all per-particle state arrays and the geometry
    accumulators are updated in place, exactly as the array path would
    have.
    """
    nx, ny, nz = pool.dims
    sctx = (tuple(int(o) * 3 for o in pool.offsets)
            + tuple(float(v) for v in pool.node_max)
            + (nx - 2, ny - 2, nz - 2, ny * nz, nz))
    dlo0, dlo1, dlo2 = float(dlo[0]), float(dlo[1]), float(dlo[2])
    dhi0, dhi1, dhi2 = float(dhi[0]), float(dhi[1]), float(dhi[2])
    rtol = float(cfg.rtol)
    atol = float(cfg.atol)
    exp_ = -1.0 / _d5.ORDER
    safety = cfg.safety
    shrink = cfg.shrink_limit
    grow = cfg.grow_limit
    h_min_ = cfg.h_min
    h_max_ = cfg.h_max
    min_speed = cfg.min_speed
    max_steps_ = cfg.max_steps
    scalar_slot = pool.scalar_slot
    # Crossing relocation, scalarized (same divide/floor/clamp as
    # Decomposition.locate_many; a crossing particle is always inside the
    # domain — out-of-domain takes classification precedence — so the
    # inside test is not needed).
    bs = decomposition._block_size
    bs0, bs1, bs2 = float(bs[0]), float(bs[1]), float(bs[2])
    bx, by, _bz = decomposition.blocks_per_axis
    bxm, bym, bzm = bx - 1, by - 1, _bz - 1

    # rec = [i, x, y, z, h, t, steps, slot, pctx, (blo, bhi), buf, k1, log]
    # k1 is the FSAL stage cache: an accepted step's 7th stage is the
    # next step's first stage (same point, same block context), and a
    # rejected step retries from the unchanged position, so its own
    # first stage carries over.  Invalidated on block crossing.
    # log: (steps, slot, h, t) after each trial, when taping.
    parts = []
    done = []
    first = rounds
    for i, (x, y, z), hv, tv, sv, s_ in zip(
            alive.tolist(), pos[alive].tolist(), h[alive].tolist(),
            time[alive].tolist(), steps[alive].tolist(),
            slot[alive].tolist()):
        parts.append([i, x, y, z, hv, tv, sv, s_, *scalar_slot(s_), [],
                      None, []])

    while parts:
        if round_limit is not None and rounds >= round_limit:
            break
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"advance_pool exceeded {max_rounds} rounds; "
                "step controller is not converging")
        result.attempted_steps += len(parts)
        survivors = []
        for rec in parts:
            x = rec[1]
            y = rec[2]
            z = rec[3]
            hcur = rec[4]
            newx, newy, newz, err, k1, k7 = _d5_step_scalar(
                sctx, rec[8], x, y, z, hcur, rtol, atol, rec[11])
            rec[11] = k1
            accept = err <= 1.0
            dx = newx - x
            dy = newy - y
            dz = newz - z
            disp2 = dx * dx + dz * dz
            disp2 = disp2 + dy * dy
            ms = min_speed * hcur
            stagnant = accept and disp2 < ms * ms
            underflow = not accept and hcur <= h_min_edge
            nsteps = rec[6]
            if accept:
                x = newx
                y = newy
                z = newz
                rec[1] = x
                rec[2] = y
                rec[3] = z
                rec[5] = rec[5] + hcur
                nsteps += 1
                rec[6] = nsteps
                rec[10].append((newx, newy, newz))
                rec[11] = k7
                result.accepted_steps += 1
            factor = err
            if factor < 1e-100:
                factor = 1e-100
            factor = float(np.power(factor, exp_))
            factor = factor * safety
            if factor < shrink:
                factor = shrink
            elif factor > grow:
                factor = grow
            factor = factor * hcur
            if factor < h_min_:
                factor = h_min_
            elif factor > h_max_:
                factor = h_max_
            rec[4] = factor
            code = 0
            if accept:
                blo, bhi = rec[9]
                if (x < blo[0] or x > bhi[0] or y < blo[1] or y > bhi[1]
                        or z < blo[2] or z > bhi[2]):
                    code = 1
                if nsteps >= max_steps_:
                    code = 3
                if (x < dlo0 or x > dhi0 or y < dlo1 or y > dhi1
                        or z < dlo2 or z > dhi2):
                    code = 2
            if underflow:
                code = 5
            if stagnant:
                code = 4
            if code == _CODE_EXITED:
                bi = math.floor((x - dlo0) / bs0)
                if bi > bxm:
                    bi = bxm
                if bi < 0:
                    bi = 0
                bj = math.floor((y - dlo1) / bs1)
                if bj > bym:
                    bj = bym
                if bj < 0:
                    bj = 0
                bk = math.floor((z - dlo2) / bs2)
                if bk > bzm:
                    bk = bzm
                if bk < 0:
                    bk = 0
                bid = bi + bx * (bj + by * bk)
                new_slot = pool.slot_for(bid)
                if new_slot >= 0:
                    rec[7] = new_slot
                    rec[8], rec[9] = scalar_slot(new_slot)
                    rec[11] = None  # new block context: FSAL invalid
                    code = 0
                else:
                    exit_bid[rec[0]] = bid
            if tape is not None:
                rec[12].append((rec[6], rec[7], rec[4], rec[5]))
            if code == _CODE_ACTIVE:
                survivors.append(rec)
            else:
                codes[rec[0]] = code
                done.append(rec)
        parts = survivors

    recs = parts + done
    idx = [rec[0] for rec in recs]
    pos[idx] = [rec[1:4] for rec in recs]
    h[idx] = [rec[4] for rec in recs]
    time[idx] = [rec[5] for rec in recs]
    steps[idx] = [rec[6] for rec in recs]
    slot[idx] = [rec[7] for rec in recs]
    for rec in recs:
        i, buf = rec[0], rec[10]
        if buf:
            verts[i, nv[i]:nv[i] + len(buf)] = buf
            nv[i] += len(buf)
        if rec[12]:
            end = first + len(rec[12])
            nsteps, slots, hs, ts = zip(*rec[12])
            tape.write(i, slice(first, end), end, nsteps,
                       pool.block_ids[list(slots)], hs, ts)
    return rounds, np.array([rec[0] for rec in parts], dtype=np.int64)


def round_guard(cfg: IntegratorConfig) -> int:
    """Most lockstep rounds one :func:`advance_pool` call may run.  A
    converging controller needs far fewer; this only stops a
    pathological one from looping forever."""
    return 4 * cfg.max_steps + 64


class TrialTape:
    """Every trial step of one :func:`advance_pool` call, round-major,
    and the call's vertices.

    Row ``r``, column ``i`` of ``steps``/``blk``/``h``/``t`` hold line
    ``i``'s accepted-step count, block id, step size and time *after*
    its ``r``-th trial (lockstep: the call's ``r``-th round); ``n[i]``
    rows of column ``i`` are filled, and ``codes[i]`` is the line's stop
    code once it stopped (:meth:`status`).  ``verts[i]`` receives the
    line's vertices of the call, its start first.

    Rows go up to the call's :func:`round_guard`, so the tape never
    grows.  ``alloc(shape, dtype)`` returns zeroed arrays whose pages
    become resident when first written (``np.zeros``, or anonymous
    shared memory that another process reads while the call runs), so
    rounds never reached cost nothing.  ``publish``, when set, is called
    with ``rounds`` each time every trial of the first ``rounds`` rounds,
    its vertices and the stop codes they set are filed.
    """

    def __init__(self, k: int, cfg: IntegratorConfig,
                 alloc: Callable[..., np.ndarray] = np.zeros) -> None:
        rounds = round_guard(cfg)
        self.n = alloc(k, np.int64)
        self.codes = alloc(k, np.int64)
        self.steps = alloc((rounds, k), np.int32)
        self.blk = alloc((rounds, k), np.int32)
        self.h = alloc((rounds, k), np.float64)
        self.t = alloc((rounds, k), np.float64)
        self.verts = alloc((k, cfg.max_steps + 1, 3), np.float64)
        self.publish: Optional[Callable[[int], None]] = None

    def write(self, lines, rounds, end: int, steps, blk, h, t) -> None:
        """File the trials of ``lines`` in ``rounds``, the last of which
        is round ``end - 1``."""
        self.steps[rounds, lines] = steps
        self.blk[rounds, lines] = blk
        self.h[rounds, lines] = h
        self.t[rounds, lines] = t
        self.n[lines] = end

    def status(self, i: int) -> Status:
        """Why line ``i`` stopped (the call ran it to termination)."""
        return _CODE_TO_STATUS[int(self.codes[i])]


@dataclass
class PoolResult:
    """Outcome of one :func:`advance_pool` call."""

    attempted_steps: int = 0
    accepted_steps: int = 0
    #: Active streamlines that left the loaded set; ``line.block_id`` is
    #: their (valid) destination block.
    exited: List[Streamline] = field(default_factory=list)
    terminated: List[Streamline] = field(default_factory=list)
    #: Active streamlines still inside the pool when the round budget ran
    #: out; ``line.block_id`` names their current (pool) block.
    in_pool: List[Streamline] = field(default_factory=list)


def advance_pool(streamlines: Sequence[Streamline], pool: BlockPool,
                 domain: Bounds, decomposition: Decomposition,
                 cfg: IntegratorConfig,
                 round_limit: Optional[int] = None,
                 tape: Optional[TrialTape] = None) -> PoolResult:
    """Advance streamlines until each terminates or leaves the pool.

    Every streamline's ``block_id`` must name a block in the pool and its
    position must lie inside that block.  Steps are DOPRI5 trials at
    ``cfg``'s tolerances, controlled by ``cfg``'s step bounds.

    ``round_limit`` caps the number of lockstep rounds in this call;
    leftover active particles come back in ``result.in_pool`` so callers
    can interleave message handling (the simulated-time analogue of the
    paper's per-streamline loop iteration checking for messages).

    ``tape``, when given, receives every trial step, stop code and
    vertex (column ``i`` is ``streamlines[i]``), and is published after
    every array round and every scalar tail.  Only a growing pool can be
    taped: a trial leaving a fixed pool would be logged in the block it
    left.
    """
    if tape is not None and pool.loader is None:
        raise ValueError("taping needs a growing pool (loader=)")
    lines = list(streamlines)
    result = PoolResult()
    if not lines:
        return result

    k = len(lines)
    pos = np.empty((k, 3), dtype=np.float64)
    h = np.empty(k, dtype=np.float64)
    steps = np.empty(k, dtype=np.int64)
    time = np.empty(k, dtype=np.float64)
    slot = np.empty(k, dtype=np.int64)
    for i, s in enumerate(lines):
        if s.status is not Status.ACTIVE:
            raise ValueError(f"streamline {s.sid} is not active "
                             f"({s.status.value})")
        slot[i] = pool.slot_for(s.block_id)
        if slot[i] < 0:
            raise ValueError(f"streamline {s.sid}: block {s.block_id} "
                             "is not in the pool")
        pos[i] = s.position
        h[i] = s.h if s.h > 0 else cfg.h_init
        steps[i] = s.steps
        time[i] = s.time
    np.clip(h, cfg.h_min, cfg.h_max, out=h)

    codes = np.zeros(k, dtype=np.int64) if tape is None else tape.codes
    exit_bid = np.full(k, -3, dtype=np.int64)

    # Line i's vertices of this call are verts[i, :nv[i]], written as they
    # are accepted: at most max_steps - steps (and one per round) more,
    # after the start vertex of a line with no geometry yet.  A tape
    # holds a buffer for the most any line can take.
    if tape is None:
        room = max(1, cfg.max_steps - int(steps.min()))
        if round_limit is not None:
            room = min(room, round_limit)
        verts = np.empty((k, room + 1, 3), dtype=np.float64)
    else:
        verts = tape.verts
    nv = np.array([not s.segments for s in lines], dtype=np.int64)
    verts[:, 0] = pos

    dlo = domain.lo_array
    dhi = domain.hi_array
    max_rounds = round_guard(cfg)
    h_min_edge = cfg.h_min * (1.0 + 1e-12)

    # The batch arrays above already satisfy Dopri5's contract;
    # validation is hoisted here so the round loop can use the prepared
    # fast path.
    pos, h = validate_batch(pos, h)
    integrator = Dopri5(cfg.rtol, cfg.atol)
    sampler = pool.sampler()

    alive = np.arange(k, dtype=np.int64)
    rounds = 0
    while len(alive):
        if round_limit is not None and rounds >= round_limit:
            break
        if len(alive) <= _SCALAR_MAX_K:
            rounds, alive = _scalar_rounds(
                pool, decomposition, cfg, alive, pos, h, time,
                steps, slot, codes, exit_bid, verts, nv, dlo, dhi,
                h_min_edge, rounds, round_limit, max_rounds, result, tape)
            if tape is not None and tape.publish is not None:
                tape.publish(rounds)
            continue
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"advance_pool exceeded {max_rounds} rounds; "
                "step controller is not converging")
        a_slot = slot[alive]
        f = sampler.bind(a_slot)
        p = pos[alive]
        hh = h[alive]

        new_p, err = integrator.attempt_steps_prepared(f, p, hh)
        result.attempted_steps += len(alive)
        accept = err <= 1.0

        delta = new_p - p
        disp2 = fast_einsum("kc,kc->k", delta, delta)
        stagnant = accept & (disp2 < (cfg.min_speed * hh) ** 2)
        underflow = (~accept) & (hh <= h_min_edge)

        acc_idx = alive[accept]
        if len(acc_idx):
            accepted_pos = new_p[accept]
            pos[acc_idx] = accepted_pos
            time[acc_idx] += hh[accept]
            steps[acc_idx] += 1
            result.accepted_steps += len(acc_idx)
            verts[acc_idx, nv[acc_idx]] = accepted_pos
            nv[acc_idx] += 1

        h[alive] = adapt_h(hh, err, cfg)

        # Classification.  Particles that stepped out of their block but
        # into another *pool* block switch slots and keep going.
        p_now = pos[alive]
        out_domain = ((p_now < dlo) | (p_now > dhi)).any(axis=1)
        out_block = ((p_now < pool.block_lo[a_slot])
                     | (p_now > pool.block_hi[a_slot])).any(axis=1)
        hit_budget = steps[alive] >= cfg.max_steps

        code = np.zeros(len(alive), dtype=np.int64)
        code = np.where(accept & out_block, _CODE_EXITED, code)
        code = np.where(accept & hit_budget, 3, code)
        code = np.where(accept & out_domain, 2, code)
        code = np.where(underflow, 5, code)
        code = np.where(stagnant, 4, code)

        crossing = code == _CODE_EXITED
        if crossing.any():
            local = np.flatnonzero(crossing)
            cross_global = alive[local]
            bids = decomposition.locate_many(pos[cross_global])
            new_slots = pool.slots_for(bids)
            stay = new_slots >= 0
            slot[cross_global[stay]] = new_slots[stay]
            code[local[stay]] = _CODE_ACTIVE
            leave = ~stay
            exit_bid[cross_global[leave]] = bids[leave]

        if tape is not None:
            tape.write(alive, rounds - 1, rounds, steps[alive],
                       pool.block_ids[slot[alive]], h[alive], time[alive])
        stopped = code != _CODE_ACTIVE
        if stopped.any():
            codes[alive[stopped]] = code[stopped]
            alive = alive[~stopped]
        if tape is not None and tape.publish is not None:
            tape.publish(rounds)

    still_alive = set(int(i) for i in alive)
    for i, (s, n_new) in enumerate(zip(lines, nv.tolist())):
        s.append_segment(verts[i, :n_new])
        s.position = pos[i].copy()
        s.h = float(h[i])
        s.time = float(time[i])
        s.steps = int(steps[i])
        if i in still_alive:
            s.block_id = pool.blocks[int(slot[i])].block_id
            result.in_pool.append(s)
            continue
        code = int(codes[i])
        if code == _CODE_EXITED:
            s.block_id = int(exit_bid[i])
            result.exited.append(s)
        else:
            s.terminate(_CODE_TO_STATUS[code])
            result.terminated.append(s)
    return result
