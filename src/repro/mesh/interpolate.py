"""Vectorized trilinear interpolation on node-centred block data.

The hot inner loop of streamline integration: every Runge-Kutta stage
evaluates the vector field at a batch of points.  Written for small-batch
throughput — the dominant regime for sparse seed sets is k of a few — so the
implementation minimizes the *number* of NumPy calls, not just per-element
work: one flattened gather of all 8 cell corners per point (instead of
eight fancy-index expressions) and a single weighted reduction.
"""

from __future__ import annotations

import numpy as np


def corner_offsets(ny: int, nz: int) -> np.ndarray:
    """Flat-index offsets of a cell's 8 corners in C-ordered (nx,ny,nz)."""
    return np.array([
        0, 1, nz, nz + 1,
        ny * nz, ny * nz + 1, ny * nz + nz, ny * nz + nz + 1,
    ], dtype=np.int64)


def trilinear_nodes(flat_data: np.ndarray, dims: tuple[int, int, int],
                    offsets: np.ndarray, fx: np.ndarray, fy: np.ndarray,
                    fz: np.ndarray) -> np.ndarray:
    """Core kernel: interpolate at continuous node coordinates.

    Parameters
    ----------
    flat_data:
        ``(nx*ny*nz, C)`` view of the node array.
    dims:
        ``(nx, ny, nz)``.
    offsets:
        Precomputed :func:`corner_offsets` for these dims.
    fx, fy, fz:
        Continuous node-space coordinates, already clipped to
        ``[0, n-1]`` per axis, shape ``(k,)``.

    Returns
    -------
    ``(k, C)`` interpolated values.
    """
    nx, ny, nz = dims
    ix = np.minimum(fx.astype(np.int64), nx - 2)
    iy = np.minimum(fy.astype(np.int64), ny - 2)
    iz = np.minimum(fz.astype(np.int64), nz - 2)

    tx = fx - ix
    ty = fy - iy
    tz = fz - iz
    sx = 1.0 - tx
    sy = 1.0 - ty
    sz = 1.0 - tz

    base = (ix * ny + iy) * nz + iz
    corners = flat_data[base[:, None] + offsets[None, :]]  # (k, 8, C)

    # Weights in the same corner order as corner_offsets (z fastest,
    # then y, then x).
    w = np.empty((len(fx), 8), dtype=np.float64)
    sxsy = sx * sy
    sxty = sx * ty
    txsy = tx * sy
    txty = tx * ty
    w[:, 0] = sxsy * sz
    w[:, 1] = sxsy * tz
    w[:, 2] = sxty * sz
    w[:, 3] = sxty * tz
    w[:, 4] = txsy * sz
    w[:, 5] = txsy * tz
    w[:, 6] = txty * sz
    w[:, 7] = txty * tz

    # Single weighted reduction; einsum accumulates the 8 corners in the
    # same sequential order as (corners * w[:, :, None]).sum(axis=1), so
    # the result is bit-for-bit identical while skipping the (k, 8, C)
    # product temporary.
    return np.einsum("ke,kec->kc", w, corners)


def trilinear(data: np.ndarray, unit_points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of ``data`` at unit-cube coordinates.

    Parameters
    ----------
    data:
        Node array of shape ``(nx, ny, nz, C)`` (``C`` components).
    unit_points:
        Points in ``[0, 1]^3`` relative to the data's bounds, shape
        ``(k, 3)``.  Values are clipped to the valid range, so querying a
        point epsilon outside the box returns the boundary value rather
        than raising.

    Returns
    -------
    ``(k, C)`` interpolated values.
    """
    pts = np.asarray(unit_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"unit_points must be (k, 3), got {pts.shape}")
    if data.ndim != 4:
        raise ValueError(f"data must be (nx, ny, nz, C), got {data.shape}")
    nx, ny, nz = data.shape[:3]
    if min(nx, ny, nz) < 2:
        raise ValueError(f"data must have >= 2 nodes per axis, "
                         f"got {data.shape}")
    fx = np.minimum(np.maximum(pts[:, 0], 0.0), 1.0) * (nx - 1)
    fy = np.minimum(np.maximum(pts[:, 1], 0.0), 1.0) * (ny - 1)
    fz = np.minimum(np.maximum(pts[:, 2], 0.0), 1.0) * (nz - 1)
    flat = data.reshape(-1, data.shape[3])
    return trilinear_nodes(flat, (nx, ny, nz), corner_offsets(ny, nz),
                           fx, fy, fz)
