"""Per-step cache of space-filling-curve keys.

The BVH sort and the distributed partitioner both encode curve keys for
the same position buffer within one timestep (and both quantize on the
same cubified-expanded grid, so the keys are interchangeable).  The
cache is keyed on a cheap content fingerprint of the positions plus the
grid parameters; a hit skips the encode — and its operation charge —
entirely.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.hilbert import curve_keys
from repro.types import FLOAT


def _fingerprint(x: np.ndarray, box: AABB, bits: int, curve: str) -> tuple:
    """Content fingerprint of (positions, grid).

    Shape + per-axis sums + first/last rows pin the buffer contents
    tightly enough for collision probability to be negligible, at a cost
    of one streaming reduction (far cheaper than the ``bits * dim``
    bit-interleaving of the encode itself).
    """
    n = x.shape[0]
    body = (x.sum(axis=0).tobytes(), x[0].tobytes(), x[-1].tobytes()) if n else ()
    return (x.shape, body, box.lo.tobytes(), box.hi.tobytes(), int(bits), curve)


class KeyCache:
    """Small LRU over recent (positions, grid) -> keys mappings."""

    def __init__(self, max_entries: int = 4):
        self.max_entries = max_entries
        self._entries: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def keys(
        self,
        x: np.ndarray,
        box: AABB,
        *,
        bits: int,
        curve: str = "hilbert",
        ctx=None,
    ) -> np.ndarray:
        """Curve keys for *x* on the grid of *box*, cached.

        The fingerprint reduction is charged on every call; the encode
        only on a miss (that is the dedupe win).
        """
        x = np.asarray(x, dtype=FLOAT)
        n, dim = x.shape
        if ctx is not None:
            ctx.counters.add(flops=float(n * dim), bytes_read=8.0 * n * dim)
        fp = _fingerprint(x, box, bits, curve)
        cached = self._entries.pop(fp, None)
        if cached is not None:
            self._entries[fp] = cached  # refresh LRU position
            self.hits += 1
            return cached
        self.misses += 1
        keys = curve_keys(x, box, bits, curve=curve, ctx=ctx)
        self._entries[fp] = keys
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        return keys
