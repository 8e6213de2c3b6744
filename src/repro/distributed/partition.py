"""Hilbert-key-range domain decomposition.

Every body is assigned the Hilbert index of its grid cell (the same
Skilling encoding the BVH sort uses); a rank owns one *contiguous*
range of the curve.  Contiguity is what makes the scheme work: the
Hilbert curve's locality means a contiguous key range is a compact
blob of space, so a rank's domain has small surface area and its halo
(the locally essential tree, :mod:`repro.distributed.let`) stays small.
This is the Cornerstone-style decomposition (Keller et al.), and the
*work-weighted* split variant is Becciani et al.'s work-sharing: split
points are placed at equal cumulative *work* rather than equal body
counts, with per-body work fed back from the machine counters of the
previous force evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LEGAL_VALUES
from repro.geometry.aabb import AABB, compute_bounding_box, cubify
from repro.geometry.hilbert import curve_keys
from repro.geometry.morton import max_bits
from repro.types import FLOAT, INDEX

DECOMPOSITION_MODES = LEGAL_VALUES["decomposition"]


def hilbert_keys(x: np.ndarray, box: AABB, *, bits: int | None = None) -> np.ndarray:
    """Hilbert index of every body on the cubified *box* grid."""
    x = np.asarray(x, dtype=FLOAT)
    n, dim = x.shape
    if bits is None:
        bits = max_bits(dim)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    return curve_keys(x, cubify(box), bits)


@dataclass(frozen=True)
class DomainDecomposition:
    """A partition of bodies into contiguous Hilbert-key ranges.

    ``order`` is the curve-sorted permutation of global body ids; rank
    ``r`` owns the sorted rows ``offsets[r]:offsets[r+1]``.  The split
    points double as *key* boundaries (``key_splits``) so that bodies
    drifting between rebalances can be re-binned against the cached
    splits without recomputing the partition.
    """

    n_ranks: int
    order: np.ndarray       # (n,) global body ids in Hilbert order
    offsets: np.ndarray     # (n_ranks + 1,) split points into `order`
    key_splits: np.ndarray  # (n_ranks + 1,) Hilbert-key range boundaries
    mode: str = "static"

    @property
    def n_bodies(self) -> int:
        return int(self.order.shape[0])

    @property
    def counts(self) -> np.ndarray:
        """Bodies owned per rank."""
        return np.diff(self.offsets)

    def members(self, rank: int) -> np.ndarray:
        """Global body ids owned by *rank* (in Hilbert order)."""
        return self.order[int(self.offsets[rank]):int(self.offsets[rank + 1])]

    def rank_of(self) -> np.ndarray:
        """Owning rank of every global body id."""
        out = np.empty(self.n_bodies, dtype=INDEX)
        for r in range(self.n_ranks):
            out[self.members(r)] = r
        return out

    def assign(self, keys: np.ndarray) -> np.ndarray:
        """Re-bin bodies against the cached key splits (post-drift)."""
        r = np.searchsorted(self.key_splits[1:-1], keys, side="right")
        return r.astype(INDEX)

    def domain_boxes(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tight per-rank AABBs over the current member positions.

        Empty ranks get inverted boxes (``lo > hi``): the LET walk's
        distance-to-box then stays finite and the rank simply exchanges
        nothing.
        """
        x = np.asarray(x, dtype=FLOAT)
        dim = x.shape[1]
        lo = np.full((self.n_ranks, dim), np.inf, dtype=FLOAT)
        hi = np.full((self.n_ranks, dim), -np.inf, dtype=FLOAT)
        for r in range(self.n_ranks):
            xm = x[self.members(r)]
            if xm.shape[0]:
                lo[r] = xm.min(axis=0)
                hi[r] = xm.max(axis=0)
        return lo, hi


def _split_offsets(cumulative: np.ndarray, n_ranks: int) -> np.ndarray:
    """Split points that equalize *cumulative* (monotone) across ranks."""
    n = cumulative.shape[0]
    total = float(cumulative[-1]) if n else 0.0
    targets = total * np.arange(1, n_ranks) / n_ranks
    cuts = np.searchsorted(cumulative, targets, side="right")
    offsets = np.empty(n_ranks + 1, dtype=INDEX)
    offsets[0] = 0
    offsets[1:-1] = cuts
    offsets[-1] = n
    # Monotonicity: degenerate weights can collapse consecutive cuts.
    np.maximum.accumulate(offsets, out=offsets)
    return offsets


def decompose(
    x: np.ndarray,
    n_ranks: int,
    *,
    box: AABB | None = None,
    mode: str = "static",
    weights: np.ndarray | None = None,
    bits: int | None = None,
    keys: np.ndarray | None = None,
) -> DomainDecomposition:
    """Partition bodies into *n_ranks* contiguous Hilbert ranges.

    ``mode="static"`` splits at equal body counts; ``mode="weighted"``
    splits at equal cumulative per-body *work* (``weights``; counts
    when omitted).  Precomputed *keys* may be passed to skip encoding.
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if mode not in DECOMPOSITION_MODES:
        raise ValueError(f"mode must be one of {DECOMPOSITION_MODES}, got {mode!r}")
    x = np.asarray(x, dtype=FLOAT)
    n = x.shape[0]
    if keys is None:
        if box is None:
            box = compute_bounding_box(x) if n else AABB.empty(x.shape[1])
        keys = hilbert_keys(x, box, bits=bits)
    order = np.argsort(keys, kind="stable").astype(INDEX)
    sorted_keys = keys[order]

    if mode == "weighted" and weights is not None and n:
        w = np.asarray(weights, dtype=FLOAT)[order]
        w = np.maximum(w, 0.0)
        if not np.isfinite(w).all() or w.sum() <= 0.0:
            w = np.ones(n, dtype=FLOAT)
        cumulative = np.cumsum(w)
    else:
        cumulative = np.arange(1, n + 1, dtype=FLOAT)
    offsets = _split_offsets(cumulative, n_ranks)

    # Key-range boundaries at the split points (half-open ranges); the
    # extremes are pinned so every representable key falls in a range.
    key_splits = np.zeros(n_ranks + 1, dtype=np.uint64)
    key_splits[-1] = np.uint64(np.iinfo(np.uint64).max)
    for r in range(1, n_ranks):
        cut = int(offsets[r])
        key_splits[r] = sorted_keys[cut] if cut < n else key_splits[-1]
    return DomainDecomposition(n_ranks, order, offsets, key_splits, mode)
