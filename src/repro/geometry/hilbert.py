"""Hilbert space-filling curve via Skilling's Gray-code algorithm.

The Hilbert-sorted BVH (paper Section IV-B) grids the bodies on the
coarsest equidistant Cartesian grid and sorts them by the Hilbert index
of their grid cell, "computed with the Skilling's Grey algorithm [17]".

This module implements Skilling's *AxesToTranspose* / *TransposeToAxes*
transforms (J. Skilling, "Programming the Hilbert curve", AIP 2004)
vectorized over numpy arrays of points, plus the bit interleaving that
converts between the transpose representation and a single integer key.

The Hilbert curve's defining property — consecutive indices map to
grid-adjacent cells — is what gives the BVH its spatial locality; it is
asserted by the property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.types import CODE
from repro.geometry.aabb import AABB, quantize_to_grid
from repro.geometry.morton import (
    _part1by1,
    _part1by2,
    max_bits,
    morton_encode,
)

_U = np.uint64


def _check(grid: np.ndarray, bits: int) -> tuple[np.ndarray, int]:
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[1] not in (2, 3):
        raise ValueError(f"grid coordinates must be (N, 2) or (N, 3), got {grid.shape}")
    dim = grid.shape[1]
    top = max_bits(dim)
    if not 1 <= bits <= top:
        raise ValueError(f"bits must be in [1, {top}] for dim={dim}, got {bits}")
    g = grid.astype(CODE)
    if np.any(g >= (_U(1) << _U(bits))):
        raise ValueError(f"grid coordinate out of range for bits={bits}")
    return g, dim


def _transpose_columns(x: np.ndarray, bits: int) -> list[np.ndarray]:
    """Skilling's AxesToTranspose on checked ``(N, dim)`` coordinates,
    one contiguous ``uint64`` column per axis.

    Every conditional of the scalar algorithm becomes a mask: the bit
    tested, shifted down and multiplied by ``p = q - 1``, is ``p`` where
    it is set and 0 where it is clear, and ``p`` xor that mask is the
    opposite.  The Gray encode's ``t`` — the xor of ``q - 1`` over the
    set bits ``q > 1`` of the last axis — is the prefix parity of that
    axis shifted down one bit, formed in six shifts.
    """
    dim = x.shape[1]
    cols = [np.ascontiguousarray(x[:, i]) for i in range(dim)]
    x0 = cols[0]
    m = np.empty_like(x0)
    t = np.empty_like(x0)
    # Inverse undo.
    for b in range(bits - 1, 0, -1):
        p = _U((1 << b) - 1)
        for i, xi in enumerate(cols):
            np.right_shift(xi, _U(b), out=m)
            m &= _U(1)
            m *= p          # p where bit b of x[i] is set
            x0 ^= m         # invert the low bits of x[0] there
            if i == 0:
                continue    # x[0] exchanges nothing with itself
            m ^= p          # p where it is clear: exchange low bits
            np.bitwise_xor(x0, xi, out=t)
            t &= m
            x0 ^= t
            xi ^= t
    # Gray encode.
    for i in range(1, dim):
        cols[i] ^= cols[i - 1]
    np.right_shift(cols[-1], _U(1), out=t)
    for s in (1, 2, 4, 8, 16, 32):
        t ^= t >> _U(s)
    for xi in cols:
        xi ^= t
    return cols


def axes_to_transpose(grid: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's AxesToTranspose, vectorized.

    Takes ``(N, dim)`` grid coordinates and returns the ``(N, dim)``
    transpose representation of their Hilbert indices.
    """
    x, _ = _check(grid, bits)
    return np.stack(_transpose_columns(x, bits), axis=1)


def transpose_to_axes(transpose: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's TransposeToAxes, vectorized (inverse of the above)."""
    x, dim = _check(transpose, bits)
    x = x.copy()
    n_top = _U(2) << _U(bits - 1)

    # Gray decode by H ^ (H/2).
    t = x[:, dim - 1] >> _U(1)
    for i in range(dim - 1, 0, -1):
        x[:, i] ^= x[:, i - 1]
    x[:, 0] ^= t

    # Undo excess work.
    q = 2
    while _U(q) != n_top:
        p = _U(q - 1)
        qq = _U(q)
        for i in range(dim - 1, -1, -1):
            hi = (x[:, i] & qq) != 0
            x[:, 0] ^= np.where(hi, p, _U(0))
            tt = np.where(hi, _U(0), (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= tt
            x[:, i] ^= tt
        q <<= 1
    return x


def _deinterleave_key(key: np.ndarray, bits: int, dim: int) -> np.ndarray:
    """Inverse of the interleave in :func:`hilbert_encode`."""
    out = np.zeros((key.shape[0], dim), dtype=CODE)
    for q in range(bits):
        for i in range(dim):
            bit = (key >> _U(q * dim + (dim - 1 - i))) & _U(1)
            out[:, i] |= bit << _U(q)
    return out


def hilbert_encode(grid: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert index of each ``(N, dim)`` grid coordinate.

    The result is a ``uint64`` key in ``[0, 2**(bits*dim))``; sorting by
    it orders points along the Hilbert curve (paper Algorithm 7 — note
    that like the paper we precompute the index once rather than
    recomputing it inside the sort comparator).  Bit ``q`` of transpose
    axis ``i`` (0 = most significant axis, per Skilling's convention)
    lands at key bit ``q*dim + (dim-1-i)``, so the key's most-significant
    group holds the top bit of every axis: each axis is spread by the
    Morton coder's magic-bit interleave and shifted into its slot.
    """
    x, dim = _check(grid, bits)
    cols = _transpose_columns(x, bits)
    spread = _part1by2 if dim == 3 else _part1by1
    key = spread(cols[0])
    for xi in cols[1:]:
        key <<= _U(1)
        key |= spread(xi)
    return key


def curve_keys(x: np.ndarray, box: AABB, bits: int, *,
               curve: str = "hilbert", ctx=None) -> np.ndarray:
    """Space-filling-curve keys of positions *x* on the *bits*-bit grid
    over *box* (:func:`~repro.geometry.aabb.quantize_to_grid`).

    ``curve='morton'`` serves the ordering ablation.  With *ctx*, the
    encode is charged at ~``bits * dim`` bit-ops per body.
    """
    grid = quantize_to_grid(x, box, bits)
    if curve == "hilbert":
        keys = hilbert_encode(grid, bits)
    elif curve == "morton":
        keys = morton_encode(grid, bits)
    else:
        raise ValueError(f"unknown curve {curve!r}")
    if ctx is not None:
        n, dim = grid.shape
        ctx.counters.add(flops=float(n * bits * dim),
                         bytes_read=8.0 * n * dim,
                         bytes_written=8.0 * n)
    return keys


def hilbert_decode(key: np.ndarray, bits: int, dim: int) -> np.ndarray:
    """Grid coordinate of each Hilbert index (inverse of encode)."""
    key = np.asarray(key, dtype=CODE)
    if key.ndim != 1:
        raise ValueError("keys must be a 1-D array")
    x = _deinterleave_key(key, bits, dim)
    return transpose_to_axes(x, bits)
