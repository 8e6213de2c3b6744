"""HILBERTSORT + BUILDTREEACCUMULATEMASS (paper Algorithm 6, Fig. 4).

The build is two vectorization-safe phases:

1. **HILBERTSORT** — bodies are gridded on the equidistant Cartesian
   grid over the cubified global bounding box, their Hilbert indices
   are precomputed with Skilling's algorithm ("note the Hilbert index
   is precomputed to avoid recomputation"), and a parallel sort yields
   the permutation (the AdaptiveCpp/Clang auxiliary-buffer workaround
   from Section V-A's implementation issue 2).
2. **BUILDTREEACCUMULATEMASS** — leaves take the sorted bodies'
   degenerate boxes and monopoles; each coarser level reduces its two
   children's bounding boxes and moments with plain (non-atomic)
   reshaped numpy sums.  The per-node reductions are independent, so
   ``par_unseq`` suffices — no atomics anywhere in this strategy.

Unlike the C++ artifact we keep the caller's body order intact and
carry the permutation inside the :class:`BVH` handle (forces are
scattered back at the end); this changes nothing observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.geometry.aabb import AABB, compute_bounding_box
from repro.geometry.hilbert import curve_keys
from repro.geometry.morton import max_bits
from repro.physics.multipole import check_multipole_order
from repro.bvh.layout import BVHLayout, bvh_escape_indices, next_pow2
from repro.stdpar.context import ExecutionContext
from repro.stdpar.policy import par
from repro.types import FLOAT, INDEX


def hilbert_sort_permutation(
    x: np.ndarray,
    box: AABB,
    *,
    bits: int | None = None,
    ctx: ExecutionContext | None = None,
    curve: str = "hilbert",
    keys: np.ndarray | None = None,
) -> np.ndarray:
    """Permutation ordering bodies along the space-filling curve.

    ``curve='morton'`` is provided for the ordering ablation (the
    related-work BVH builders sort by Morton codes; the paper argues for
    Hilbert + pairwise aggregation).

    ``keys`` short-circuits the encode: pass curve keys already computed
    for these positions (e.g. shared with the distributed partitioner
    through :class:`repro.maintenance.KeyCache`) and only the sort runs
    — and is charged.
    """
    x = np.asarray(x, dtype=FLOAT)
    n, dim = x.shape
    if n == 0:
        return np.empty(0, dtype=INDEX)
    if keys is None:
        bits = max_bits(dim) if bits is None else bits
        keys = curve_keys(x, box, bits, curve=curve, ctx=ctx)
    if ctx is not None:
        from repro.stdpar.algorithms import sort_by_key

        return sort_by_key(par, keys, ctx)
    return np.argsort(keys, kind="stable")


class CurveOrder(NamedTuple):
    """HILBERTSORT's result: the bodies' curve order on *box*'s grid."""

    perm: np.ndarray
    box: AABB


@dataclass
class BVH:
    """A built Hilbert-sorted BVH over one snapshot of body positions."""

    layout: BVHLayout
    box: AABB
    perm: np.ndarray        # sorted order: leaf i holds body perm[i]
    bb_lo: np.ndarray       # (n_nodes, dim)
    bb_hi: np.ndarray       # (n_nodes, dim)
    com: np.ndarray         # (n_nodes, dim) centres of mass
    mass: np.ndarray        # (n_nodes,)
    count: np.ndarray       # (n_nodes,) bodies below the node
    x_sorted: np.ndarray    # (n, dim) positions in leaf order
    m_sorted: np.ndarray    # (n,)
    #: Traceless quadrupole tensors (n_nodes, 3, 3) when built at
    #: multipole order 2; None at the default monopole order.
    quad: np.ndarray | None = None

    @property
    def n_bodies(self) -> int:
        return self.perm.shape[0]

    @property
    def escape(self) -> np.ndarray:
        return bvh_escape_indices(self.layout.n_leaves)

    def node_size2(self) -> np.ndarray:
        """Squared longest bbox side per node (0 for empty nodes) — the
        size entering the acceptance criterion; BVH boxes may be
        elongated and overlap, which is why the distance threshold
        reads differently than the octree's (end of Section IV-B)."""
        ext = np.maximum(self.bb_hi - self.bb_lo, 0.0)
        return ext.max(axis=1) ** 2


def build_bvh(
    x: np.ndarray,
    m: np.ndarray,
    *,
    box: AABB | None = None,
    sort_bits: int | None = None,
    ctx: ExecutionContext | None = None,
    curve: str = "hilbert",
    order: int = 1,
) -> BVH:
    """Build the BVH (sort + fused level reduction)."""
    x = np.asarray(x, dtype=FLOAT)
    m = np.asarray(m, dtype=FLOAT)
    n, dim = x.shape
    if box is None:
        box = compute_bounding_box(x) if n else AABB.empty(dim)
    perm = hilbert_sort_permutation(x, box, bits=sort_bits, ctx=ctx, curve=curve)
    return assemble_bvh(x, m, perm, box, ctx=ctx, order=order)


def assemble_bvh(
    x: np.ndarray,
    m: np.ndarray,
    perm: np.ndarray,
    box: AABB,
    *,
    ctx: ExecutionContext | None = None,
    order: int = 1,
) -> BVH:
    """BUILDTREEACCUMULATEMASS from an existing sort permutation.

    ``order=2`` additionally reduces traceless quadrupole tensors level
    by level (the paper's multipole extension); still atomics-free.
    """
    check_multipole_order(order, np.asarray(x).shape[1])
    x = np.asarray(x, dtype=FLOAT)
    m = np.asarray(m, dtype=FLOAT)
    n, dim = x.shape
    xs = x[perm]
    ms = m[perm]

    p = next_pow2(n)
    layout = BVHLayout(p)
    nn = layout.n_nodes
    bb_lo = np.full((nn, dim), np.inf, dtype=FLOAT)
    bb_hi = np.full((nn, dim), -np.inf, dtype=FLOAT)
    com_w = np.zeros((nn, dim), dtype=FLOAT)
    mass = np.zeros(nn, dtype=FLOAT)
    count = np.zeros(nn, dtype=INDEX)

    # Leaves: one body each; padding leaves stay empty.
    fl = layout.first_leaf
    bb_lo[fl : fl + n] = xs
    bb_hi[fl : fl + n] = xs
    com_w[fl : fl + n] = ms[:, None] * xs
    mass[fl : fl + n] = ms
    count[fl : fl + n] = 1

    _reduce_geometry_levels(layout, bb_lo, bb_hi, com_w, mass=mass, count=count)
    com = _finalize_coms(layout, com_w, mass, count, xs)
    quad = _reduce_quadrupoles(layout, mass, com) if order == 2 else None

    if ctx is not None:
        # Streaming reduction: every node is written once and every
        # child read once; ~ (2 boxes + com + mass + count) * 8 bytes.
        node_bytes = (4.0 * dim + 2.0) * 8.0 + (72.0 if order == 2 else 0.0)
        ctx.counters.add(
            flops=10.0 * dim * nn,
            bytes_read=2.0 * node_bytes * nn,
            bytes_written=node_bytes * nn,
            loop_iterations=float(nn),
            kernel_launches=float(layout.n_levels),
        )

    return BVH(
        layout=layout, box=box, perm=perm,
        bb_lo=bb_lo, bb_hi=bb_hi, com=com, mass=mass, count=count,
        x_sorted=xs, m_sorted=ms, quad=quad,
    )


def _reduce_geometry_levels(
    layout: BVHLayout,
    bb_lo: np.ndarray,
    bb_hi: np.ndarray,
    com_w: np.ndarray,
    *,
    mass: np.ndarray | None = None,
    count: np.ndarray | None = None,
) -> None:
    """Level-by-level pairwise reduction (Fig. 4), in place.

    Each uninitialized coarser node reduces its two children; all
    reductions at a level are independent (``par_unseq``).  ``mass`` /
    ``count`` are optional because a refit leaves them untouched (body
    masses and leaf membership are fixed between full builds).
    """
    dim = bb_lo.shape[1]
    for level in range(layout.n_levels - 2, -1, -1):
        sl = layout.level_slice(level)
        cl = layout.level_slice(level + 1)
        k = sl.stop - sl.start
        bb_lo[sl] = bb_lo[cl].reshape(k, 2, dim).min(axis=1)
        bb_hi[sl] = bb_hi[cl].reshape(k, 2, dim).max(axis=1)
        com_w[sl] = com_w[cl].reshape(k, 2, dim).sum(axis=1)
        if mass is not None:
            mass[sl] = mass[cl].reshape(k, 2).sum(axis=1)
        if count is not None:
            count[sl] = count[cl].reshape(k, 2).sum(axis=1)


def _finalize_coms(
    layout: BVHLayout,
    com_w: np.ndarray,
    mass: np.ndarray,
    count: np.ndarray,
    xs: np.ndarray,
) -> np.ndarray:
    """Weighted coms, with the bitwise-exactness fixups."""
    dim = xs.shape[1] if xs.ndim == 2 else com_w.shape[1]
    n = xs.shape[0]
    fl = layout.first_leaf
    with np.errstate(invalid="ignore", divide="ignore"):
        com = np.where(mass[:, None] > 0.0, com_w / np.maximum(mass[:, None], 1e-300), 0.0)
    # Leaf coms must be bitwise equal to the body positions: (m*x)/m is
    # not an exact round-trip, and a one-ulp offset makes the body's
    # visit to its own leaf a divergent near-zero-distance interaction
    # under zero softening.
    com[fl : fl + n] = xs
    # The same holds for internal nodes holding a single body (their
    # sibling subtree is padding): the node's box is degenerate, so
    # ``size2 = 0`` passes the MAC at *any* nonzero distance — including
    # the one-ulp offset of the weighted com from the body's own
    # position.  Propagate the occupied child's com bitwise instead.
    for level in range(layout.n_levels - 2, -1, -1):
        sl = layout.level_slice(level)
        cl = layout.level_slice(level + 1)
        k = sl.stop - sl.start
        single = np.nonzero(count[sl] == 1)[0]
        if single.size:
            ccount = count[cl].reshape(k, 2)
            pick = np.argmax(ccount[single], axis=1)
            com[sl.start + single] = com[cl].reshape(k, 2, dim)[single, pick]
    return com


def _reduce_quadrupoles(
    layout: BVHLayout,
    mass: np.ndarray,
    com: np.ndarray,
) -> np.ndarray:
    """Traceless quadrupoles combined pairwise about the final coms.

    Single-body (and empty) leaves have zero quadrupole.
    """
    from repro.physics.multipole import combine_quadrupoles

    nn = layout.n_nodes
    dim = com.shape[1]
    quad = np.zeros((nn, dim, dim), dtype=FLOAT)
    for level in range(layout.n_levels - 2, -1, -1):
        sl = layout.level_slice(level)
        cl = layout.level_slice(level + 1)
        k = sl.stop - sl.start
        quad[sl] = combine_quadrupoles(
            quad[cl].reshape(k, 2, dim, dim),
            mass[cl].reshape(k, 2),
            com[cl].reshape(k, 2, dim),
            com[sl],
        )
    return quad


def refit_bvh(
    bvh: BVH,
    x: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
) -> BVH:
    """Refit the BVH to moved bodies, keeping the sort permutation.

    Runs the same fused bottom-up level sweep as :func:`assemble_bvh`
    but skips encode, sort and the mass/count reductions (masses and
    leaf membership are unchanged between full builds), so the result is
    *bitwise identical* to ``assemble_bvh(x, m, bvh.perm, bvh.box)`` at
    any positions ``x`` — the refit itself is exact; only the staleness
    of the permutation (and of cached interaction lists) approximates.

    Modeled as a single fused kernel: leaves are streamed once from the
    gathered positions and every node's box + weighted com is written
    once — one launch, no sort traffic.
    """
    x = np.asarray(x, dtype=FLOAT)
    n, dim = x.shape
    if n != bvh.n_bodies:
        raise ValueError("refit requires an unchanged body count")
    layout = bvh.layout
    nn = layout.n_nodes
    xs = x[bvh.perm]
    ms = bvh.m_sorted

    bb_lo = np.full((nn, dim), np.inf, dtype=FLOAT)
    bb_hi = np.full((nn, dim), -np.inf, dtype=FLOAT)
    com_w = np.zeros((nn, dim), dtype=FLOAT)
    fl = layout.first_leaf
    bb_lo[fl : fl + n] = xs
    bb_hi[fl : fl + n] = xs
    com_w[fl : fl + n] = ms[:, None] * xs

    _reduce_geometry_levels(layout, bb_lo, bb_hi, com_w)
    com = _finalize_coms(layout, com_w, bvh.mass, bvh.count, xs)
    order = 2 if bvh.quad is not None else 1
    quad = _reduce_quadrupoles(layout, bvh.mass, com) if order == 2 else None

    if ctx is not None:
        # Fused refit: read the n gathered positions + masses once plus
        # the per-node count byte-stream for the fixups; write 2 boxes +
        # com per node (mass/count untouched).  One launch.
        ctx.counters.add(
            flops=10.0 * dim * nn,
            bytes_read=8.0 * n * (dim + 1.0) + 8.0 * nn,
            bytes_written=3.0 * dim * 8.0 * nn + (72.0 * nn if order == 2 else 0.0),
            loop_iterations=float(nn),
            kernel_launches=1.0,
        )

    return BVH(
        layout=layout, box=bvh.box, perm=bvh.perm,
        bb_lo=bb_lo, bb_hi=bb_hi, com=com, mass=bvh.mass, count=bvh.count,
        x_sorted=xs, m_sorted=ms, quad=quad,
    )
