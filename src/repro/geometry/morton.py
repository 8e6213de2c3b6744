"""Morton (Z-order) codes, vectorized.

The Concurrent Octree orders the children of every node in Morton order
(paper Fig. 1), and the deterministic vectorized tree builder
(:mod:`repro.octree.build_vectorized`) constructs the identical tree by
sorting full-depth Morton codes.  Encoding uses the classic
magic-number bit-spreading method, fully vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.types import CODE

#: Maximum bits per dimension that fit a 64-bit code.
MAX_BITS_3D = 21
MAX_BITS_2D = 31


def max_bits(dim: int) -> int:
    """Finest per-dimension grid whose *dim*-way key fits 64 bits.

    Tree orders only ever compare keys, so the finest grid is the
    safely conservative default wherever a caller names no ``bits``.
    """
    return MAX_BITS_3D if dim == 3 else MAX_BITS_2D

_U = np.uint64


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each element to every third bit."""
    x = x.astype(CODE) & _U(0x1FFFFF)
    x = (x | (x << _U(32))) & _U(0x1F00000000FFFF)
    x = (x | (x << _U(16))) & _U(0x1F0000FF0000FF)
    x = (x | (x << _U(8))) & _U(0x100F00F00F00F00F)
    x = (x | (x << _U(4))) & _U(0x10C30C30C30C30C3)
    x = (x | (x << _U(2))) & _U(0x1249249249249249)
    return x


def _compact1by2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by2`."""
    x = x.astype(CODE) & _U(0x1249249249249249)
    x = (x ^ (x >> _U(2))) & _U(0x10C30C30C30C30C3)
    x = (x ^ (x >> _U(4))) & _U(0x100F00F00F00F00F)
    x = (x ^ (x >> _U(8))) & _U(0x1F0000FF0000FF)
    x = (x ^ (x >> _U(16))) & _U(0x1F00000000FFFF)
    x = (x ^ (x >> _U(32))) & _U(0x1FFFFF)
    return x


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 31 bits of each element to every second bit."""
    x = x.astype(CODE) & _U(0x7FFFFFFF)
    x = (x | (x << _U(16))) & _U(0x0000FFFF0000FFFF)
    x = (x | (x << _U(8))) & _U(0x00FF00FF00FF00FF)
    x = (x | (x << _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << _U(2))) & _U(0x3333333333333333)
    x = (x | (x << _U(1))) & _U(0x5555555555555555)
    return x


def _compact1by1(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by1`."""
    x = x.astype(CODE) & _U(0x5555555555555555)
    x = (x ^ (x >> _U(1))) & _U(0x3333333333333333)
    x = (x ^ (x >> _U(2))) & _U(0x0F0F0F0F0F0F0F0F)
    x = (x ^ (x >> _U(4))) & _U(0x00FF00FF00FF00FF)
    x = (x ^ (x >> _U(8))) & _U(0x0000FFFF0000FFFF)
    x = (x ^ (x >> _U(16))) & _U(0x7FFFFFFF)
    return x


def _check(grid: np.ndarray, bits: int) -> tuple[np.ndarray, int]:
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[1] not in (2, 3):
        raise ValueError(f"grid coordinates must be (N, 2) or (N, 3), got {grid.shape}")
    dim = grid.shape[1]
    top = max_bits(dim)
    if not 1 <= bits <= top:
        raise ValueError(f"bits must be in [1, {top}] for dim={dim}, got {bits}")
    g = grid.astype(CODE)
    limit = _U(1) << _U(bits)
    if np.any(g >= limit):
        raise ValueError(f"grid coordinate out of range for bits={bits}")
    return g, dim


def morton_encode(grid: np.ndarray, bits: int) -> np.ndarray:
    """Encode ``(N, dim)`` integer grid coordinates into Morton codes.

    Bit ``k`` of axis ``d`` lands at code bit ``k * dim + d``, i.e. axis
    0 (x) occupies the least significant position within each bit-group,
    matching the child ordering of paper Fig. 1.
    """
    g, dim = _check(grid, bits)
    if dim == 3:
        return (
            _part1by2(g[:, 0])
            | (_part1by2(g[:, 1]) << _U(1))
            | (_part1by2(g[:, 2]) << _U(2))
        )
    return _part1by1(g[:, 0]) | (_part1by1(g[:, 1]) << _U(1))


def morton_decode(code: np.ndarray, bits: int, dim: int) -> np.ndarray:
    """Decode Morton codes back into ``(N, dim)`` grid coordinates."""
    code = np.asarray(code, dtype=CODE)
    if code.ndim != 1:
        raise ValueError("codes must be a 1-D array")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    top = max_bits(dim)
    if not 1 <= bits <= top:
        raise ValueError(f"bits must be in [1, {top}] for dim={dim}")
    out = np.empty((code.shape[0], dim), dtype=CODE)
    if dim == 3:
        out[:, 0] = _compact1by2(code)
        out[:, 1] = _compact1by2(code >> _U(1))
        out[:, 2] = _compact1by2(code >> _U(2))
    else:
        out[:, 0] = _compact1by1(code)
        out[:, 1] = _compact1by1(code >> _U(1))
    mask = (_U(1) << _U(bits)) - _U(1)
    out &= mask
    return out


def morton_child_digits(code: np.ndarray, bits: int, dim: int) -> np.ndarray:
    """Return an ``(N, bits)`` array of per-level child indices.

    Column 0 is the child index at the root (most significant digit);
    column ``bits-1`` the index at the deepest level.  Used by the
    vectorized octree builder and by tests validating tree placement.
    """
    code = np.asarray(code, dtype=CODE)
    n = code.shape[0]
    out = np.empty((n, bits), dtype=np.int64)
    mask = _U((1 << dim) - 1)
    for level in range(bits):
        shift = _U(dim * (bits - 1 - level))
        out[:, level] = ((code >> shift) & mask).astype(np.int64)
    return out
