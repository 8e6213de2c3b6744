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
from repro.geometry.morton import max_bits, morton_encode

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


def axes_to_transpose(grid: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's AxesToTranspose, vectorized.

    Takes ``(N, dim)`` grid coordinates and returns the ``(N, dim)``
    transpose representation of their Hilbert indices.
    """
    x, dim = _check(grid, bits)
    x = x.copy()
    m = _U(1) << _U(bits - 1)

    # Inverse undo.
    q = int(m)
    while q > 1:
        p = _U(q - 1)
        qq = _U(q)
        for i in range(dim):
            hi = (x[:, i] & qq) != 0
            # invert x[0] where bit set
            x[:, 0] ^= np.where(hi, p, _U(0))
            # exchange low bits of x[0] and x[i] where bit clear
            t = np.where(hi, _U(0), (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= t
            x[:, i] ^= t
        q >>= 1

    # Gray encode.
    for i in range(1, dim):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(x.shape[0], dtype=CODE)
    q = int(m)
    while q > 1:
        nz = (x[:, dim - 1] & _U(q)) != 0
        t ^= np.where(nz, _U(q - 1), _U(0))
        q >>= 1
    for i in range(dim):
        x[:, i] ^= t
    return x


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


def _interleave_transpose(x: np.ndarray, bits: int) -> np.ndarray:
    """Pack the transpose form into a single integer key.

    Bit ``q`` of axis ``i`` (0 = most significant axis, per Skilling's
    convention) lands at key bit ``q*dim + (dim-1-i)``, so the key's
    most-significant group holds the top bit of every axis.
    """
    n, dim = x.shape
    key = np.zeros(n, dtype=CODE)
    for q in range(bits):
        for i in range(dim):
            bit = (x[:, i] >> _U(q)) & _U(1)
            key |= bit << _U(q * dim + (dim - 1 - i))
    return key


def _deinterleave_key(key: np.ndarray, bits: int, dim: int) -> np.ndarray:
    """Inverse of :func:`_interleave_transpose`."""
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
    recomputing it inside the sort comparator).
    """
    x = axes_to_transpose(grid, bits)
    return _interleave_transpose(x, bits)


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
