"""Shared numeric types and small helpers.

The paper uses double precision (FP64) throughout to enable comparison
with Thüring et al.; we follow suit.  All body state is stored in
structure-of-arrays (SoA) ``numpy`` arrays, which is both the fast layout
for vectorized Python and the layout the C++ artifact uses.
"""

from __future__ import annotations

import numpy as np

#: Floating point dtype used for positions, velocities, masses, forces.
FLOAT = np.float64

#: Integer dtype used for node/body indices and offsets.  The paper's
#: octree stores one 4-byte child offset per node; int32 would match, but
#: we use int64 to allow the larger node pools Python-side without
#: wraparound checks.  The *layout semantics* (one offset per node, one
#: parent offset per sibling group) are preserved.
INDEX = np.int64

#: Unsigned dtype for Morton / Hilbert codes (up to 21 bits per dimension
#: in 3D = 63 bits).
CODE = np.uint64

#: Number of spatial dimensions.  The library supports 2D (quadtree,
#: matching paper Figure 1's exposition) and 3D (octree, used for all
#: experiments).
DEFAULT_DIM = 3


def as_float_array(a, name: str = "array") -> np.ndarray:
    """Convert *a* to a contiguous FP64 array, validating finiteness."""
    arr = np.ascontiguousarray(a, dtype=FLOAT)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def validate_positions(x: np.ndarray, dim: int | None = None,
                       name: str = "positions") -> np.ndarray:
    """Validate an ``(N, dim)`` position (or velocity) array and return
    it contiguous; errors name the array as *name*."""
    arr = as_float_array(x, name)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (N, dim), got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"{name} must have dim={dim}, got {arr.shape[1]}")
    if arr.shape[1] not in (2, 3):
        raise ValueError(f"only 2-D and 3-D supported, got dim={arr.shape[1]}")
    return arr


def validate_masses(m: np.ndarray, n: int) -> np.ndarray:
    """Validate an ``(N,)`` mass array (non-negative, finite, with a
    finite total: every tree node's mass is a partial sum of it)."""
    arr = as_float_array(m, "masses")
    if arr.shape != (n,):
        raise ValueError(f"masses must have shape ({n},), got {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("masses must be non-negative")
    with np.errstate(over="ignore"):
        if not np.isfinite(arr.sum()):
            raise ValueError("masses sum to a non-finite total")
    return arr


def validate_moments(x: np.ndarray, m: np.ndarray, order: int) -> None:
    """Reject bodies whose tree moments overflow at multipole *order*:
    node sums of ``m x`` are bounded by ``sum(m max|x_i|)``, order-2
    terms ``3 m s s`` (``|s| <= 2 max|x|`` per axis) by
    ``12 m.sum() max|x|**2``."""
    with np.errstate(over="ignore"):
        r = np.abs(x).max(axis=1, initial=0.0)
        bound = m @ r if order < 2 else 12.0 * m.sum() * r.max(initial=0.0) ** 2
    if not np.isfinite(bound):
        raise ValueError(f"masses times extent overflow the order-{order} "
                         "tree moments")
