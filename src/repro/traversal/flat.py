"""Batch evaluation of cached interaction lists.

The per-group tile kernel of :mod:`repro.traversal.engine` pays a
Python-loop iteration plus a handful of small-array temporaries for
every group.  At production group sizes that loop — not the arithmetic
— dominates *host* wall-clock.  This module trades it for a few large
kernels, prepared once per list epoch (:func:`build_flat_lists`) and
cached alongside the lists in the structure cache.  Only *indices* are
cached: masses and centres of mass are gathered from the live
:class:`~repro.traversal.engine.TreeView` every step, so the
preparation survives refits unchanged.

* **Node sources in dense batches** — every group's node sources are
  packed into :class:`DenseBucket`\\ s: groups of similar list length,
  padded to a common width and evaluated as a few ``(groups, rows,
  nodes)`` batched kernels with the ``x^2 + c^2 - 2 x.c`` algebra, so
  the per-pair arithmetic stays in BLAS.  Accepted nodes carry the
  quadrupole term on order-2 trees.  With Newton's third law off the
  direct leaves join as monopole nodes, and a row meeting its own point
  leaf is zeroed through its bucket's self slots — that form *is*
  ``eval_mode="gemm"``: the same kernel as flat, without the dedup.

* **Newton's third law** — direct body-body work (point leaves and,
  for the octree, bucket-leaf bodies) appears in ordered form: group
  ``A``'s list names body ``j`` *and* group ``B``'s list names body
  ``i``.  Pairs seen from both sides are evaluated once and the force
  scatter-accumulated to *both* bodies with opposite sign — halving
  that share of the near-field inverse-square-root work.  One-sided
  pairs (the partner was absorbed into an accepted multipole on the
  other side) keep their original orientation.  Which pairs are
  two-sided is decided at list-entry level, never per pair: every row
  of group ``A`` meets exactly ``A``'s direct entries, so pair
  ``(i, j)`` is two-sided iff the entry ``(group of j, i)`` exists.
  The entries are sorted by ``(group, source row)`` and cut into runs
  of one source group; each ``(row, run)`` combination is classified
  by one ``searchsorted`` mirror lookup and expanded by range
  concatenation, which emits both pools already in ``(target,
  source)`` order.  Memory is O(entries + rows x runs) besides the
  pools themselves — no pair-level sort and no dense
  ``rows x groups`` table.

* **Scatter determinism** — the body pools' target-side reduction uses
  ``np.add.reduceat`` over row-sorted segments and the reaction-side
  scatter uses ``np.bincount``; both accumulate in index order
  deterministically (unlike a parallel ``np.add.at``), so batch
  evaluation is bitwise reproducible run to run.  Their summation
  order differs from the tile kernel's per-group order, so the batches
  match tile only to rounding (~1e-15 relative); the tile mode remains
  the bit-exactness reference against the lockstep kernels.

The body-pair kernels stream over fixed-size blocks (:data:`BLOCK`
pairs) and the dense batches over chunks of ~2 MB, all through
preallocated scratch pools sized to stay cache-resident; steady-state
steps allocate nothing proportional to the pair count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import InteractionLists, TreeView
from repro.traversal.groups import BodyGroups
from repro.types import FLOAT, INDEX

#: Pairs per kernel block.  Chosen so one block's float scratch
#: (~90 bytes/pair) fits in the last-level cache with room to spare:
#: the per-pair temporaries then never round-trip through DRAM and the
#: only streaming traffic is the index arrays themselves.
BLOCK = 1 << 15

#: Slots per quadrupole sub-batch.  The order-2 term materializes a
#: 3x3 tensor per (row, node) slot, so it runs on sub-batches about the
#: size of one group's tile, which keeps those temporaries in cache.
QUAD_SLOTS = 1 << 12


def _idx_dtype(bound: int):
    """Narrowest index dtype covering ``[0, bound)`` — int32 halves the
    streamed bytes per pair, which is the dominant DRAM traffic."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class Segments:
    """Run-length view of a sorted target-index array.

    ``starts[i]`` is the pool position where the run of ``rows[i]``
    begins; runs are maximal, so ``rows`` is strictly increasing and
    ``starts[0] == 0``.  :func:`_segment_add` turns a block of per-pair
    contributions into one ``np.add.reduceat`` over these boundaries.
    """

    starts: np.ndarray
    rows: np.ndarray


def _segments(idx_sorted: np.ndarray) -> Segments:
    if idx_sorted.shape[0] == 0:
        z = np.empty(0, dtype=np.int64)
        return Segments(z, z.copy())
    first = np.empty(idx_sorted.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(idx_sorted[1:], idx_sorted[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    return Segments(starts, idx_sorted[starts].astype(np.int64))


def _segment_add(acc: np.ndarray, contrib: np.ndarray, p0: int,
                 segs: Segments) -> None:
    """``acc[row] += contrib`` for the block at pool offset *p0*.

    Block boundaries need not align with segment boundaries: a run
    split across blocks contributes partial sums to the same row from
    each block.  Rows within one block are unique, so the final fancy
    add is well-defined (and, like ``reduceat``, index-ordered).
    """
    b = contrib.shape[0]
    j0 = int(np.searchsorted(segs.starts, p0, side="right")) - 1
    j1 = int(np.searchsorted(segs.starts, p0 + b, side="left"))
    bnd = segs.starts[j0:j1] - p0
    if bnd[0] < 0:
        bnd[0] = 0  # fresh slice-difference array; safe to clamp
    acc[segs.rows[j0:j1]] += np.add.reduceat(contrib, bnd, axis=0)


@dataclass(frozen=True)
class DenseBucket:
    """A batch of groups with similar list lengths, padded to a common
    width ``K`` for one 3-D batched evaluation.

    ``node_mat[i, :]`` holds group ``i``'s node sources padded with a
    sentinel node (zero mass, far-away centre) and ``row_mat[i, :]`` its
    member rows padded with a sentinel row, so the whole bucket runs as
    a handful of ``(chunk, B, K)`` dense kernels — the gemm algebra
    without a per-group Python loop.
    """

    node_mat: np.ndarray  # (G_b, K) int
    row_mat: np.ndarray   # (G_b, B) int
    #: Real (unpadded) rows and columns of each group.
    n_rows: np.ndarray    # (G_b,)
    n_cols: np.ndarray    # (G_b,)
    #: True when the columns are accepted nodes (quadrupole-carrying on
    #: order-2 trees); False for direct leaves folded in as monopoles.
    approx: bool = True
    #: Where a row meets its own point leaf: each such row's column
    #: index, flattened to its position ``(i * B + row) * K + col`` in
    #: the bucket's slots, ascending; the kernel zeroes these weights.
    #: None when no row does.
    self_slots: np.ndarray | None = None

    @property
    def n_real(self) -> int:
        """Unpadded (row, node) slots, for the interaction counters."""
        return int(self.n_rows @ self.n_cols)


@dataclass
class FlatLists:
    """One epoch's interaction lists, prepared for batch evaluation.

    * node sources — :class:`DenseBucket` batches of accepted multipoles
      (and, when n3l is off, of direct leaves as monopole nodes);
    * two-sided body pairs ``(s_t, s_s)`` with ``s_t < s_s`` — near
      pairs seen from both sides, evaluated once, scattered to both;
    * one-sided body pairs ``(o_t, o_s)`` — near pairs whose mirror was
      approximated away; original orientation, target side only.

    The body pools are in sorted-row space and row-major (sorted by
    target row, so the target-side scatter is a segment reduction).
    """

    buckets: list
    s_t: np.ndarray
    s_s: np.ndarray
    s_segs: Segments
    o_t: np.ndarray
    o_s: np.ndarray
    o_segs: Segments
    #: Ordered near-field body pairs before dedup (self pairs excluded);
    #: ``pairs_naive / pairs_evaluated`` is the n3l dedup ratio.
    pairs_naive: int
    #: True when bucket-leaf (KLASS_EXACT) bodies were folded into the
    #: body pools, letting the caller skip its scalar exact loop.
    includes_exact: bool
    _scratch: dict = field(default_factory=dict, repr=False)

    @property
    def n_node_pairs(self) -> int:
        return sum(b.n_real for b in self.buckets)

    @property
    def n_two_sided(self) -> int:
        return int(self.s_t.shape[0])

    @property
    def n_one_sided(self) -> int:
        return int(self.o_t.shape[0])

    @property
    def pairs_evaluated(self) -> int:
        """Deduped near-field pair evaluations per step."""
        return self.n_two_sided + self.n_one_sided

    def buf(self, name: str, shape: tuple, dtype=FLOAT) -> np.ndarray:
        """Named scratch of *shape*: a view of a buffer that only grows,
        reused across steps and shared by every bucket asking for it."""
        size = math.prod(shape)
        b = self._scratch.get(name)
        if b is None or b.size < size or b.dtype != dtype:
            b = np.empty(size, dtype=dtype)
            self._scratch[name] = b
        return b[:size].reshape(shape)


def _row_major_expand(
    sub_nodes: np.ndarray,
    sub_counts: np.ndarray,
    grow: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a per-group entry subset into row-major flat pairs.

    *sub_nodes* holds the subset's entries concatenated in group order,
    *sub_counts* the per-group subset sizes, *grow* the group of each
    sorted row.  Returns ``(row, pos, rc)`` where ``row[i]`` is the
    target row of flat pair ``i`` (sorted ascending), ``pos[i]`` indexes
    into *sub_nodes*, and ``rc`` is the per-row pair count.  The caller
    gathers ``sub_nodes[pos]`` (and any parallel entry array) itself.
    """
    suboff = np.concatenate(
        ([0], np.cumsum(sub_counts, dtype=np.int64)))
    rc = sub_counts[grow]
    row_ptr = np.concatenate(([0], np.cumsum(rc, dtype=np.int64)))
    total = int(row_ptr[-1])
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), rc
    row = np.repeat(np.arange(n, dtype=np.int64), rc)
    # pos = subset start of the row's group + offset within the row.
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(suboff[grow] - row_ptr[:-1], rc)
    return row, pos, rc


def _expand_ranges(
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``vals[lo[k]:hi[k]]`` over ranges ``k``, each tagged
    with ``rows[k]``: returns ``(row, val)`` pair arrays in range order
    (*vals*'s dtype for both)."""
    ln = hi - lo
    pos = np.arange(int(ln.sum()), dtype=np.int64)
    pos += np.repeat(lo - (np.cumsum(ln) - ln), ln)
    return np.repeat(rows.astype(vals.dtype), ln), vals[pos]


def _dense_buckets(
    nodes: np.ndarray,
    counts: np.ndarray,
    groups: BodyGroups,
    n: int,
    nn: int,
    *,
    approx: bool = True,
    self_col: np.ndarray | None = None,
) -> list:
    """Pack per-group node lists into padded :class:`DenseBucket`\\ s.

    *nodes* holds the lists concatenated in group order, *counts* their
    lengths.  Groups are sorted by list length and cut into buckets
    whenever the pad waste against the bucket's widest list would
    exceed ~25%, so the padded slot count stays within a small factor
    of the real one.  Sentinels: node ``nn`` (zero mass, centre placed
    just outside the occupied box so its weight is finite but
    multiplied away) and row ``n`` (accumulates into a discarded extra
    row).  *self_col* (``n + 1`` entries, -1 for none) is the column
    within its group's list of each row's own point leaf.
    """
    ndt = _idx_dtype(nn + 1)
    rdt = _idx_dtype(n + 1)
    go = groups.offsets.astype(np.int64)
    gsz = np.diff(go)
    bmax = int(gsz.max()) if gsz.size else 0
    aoff = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    nz = np.nonzero(counts)[0]
    order = nz[np.argsort(counts[nz], kind="stable")][::-1]
    buckets: list = []
    i = 0
    while i < order.size:
        kmax = int(counts[order[i]])
        j = i + 1
        while j < order.size and int(counts[order[j]]) * 4 >= kmax * 3:
            j += 1
        gids = order[i:j]
        ks = counts[gids]
        # CSR rows -> padded matrix: gather with clipped positions,
        # then overwrite the pad tail with the sentinel node.
        src = aoff[gids][:, None] + np.arange(kmax, dtype=np.int64)
        np.minimum(src, (aoff[gids] + ks - 1)[:, None], out=src)
        node_mat = nodes[src].astype(ndt, copy=False)
        node_mat[np.arange(kmax)[None, :] >= ks[:, None]] = nn
        row_mat = (go[gids][:, None]
                   + np.arange(bmax, dtype=np.int64))
        row_mat[row_mat >= go[gids + 1][:, None]] = n
        slots = None
        if self_col is not None:
            sc = self_col[row_mat]
            gi, r = np.nonzero(sc >= 0)
            if gi.size:
                slots = (gi * bmax + r) * kmax + sc[gi, r]
        buckets.append(DenseBucket(
            np.ascontiguousarray(node_mat),
            np.ascontiguousarray(row_mat.astype(rdt)),
            gsz[gids], ks, approx, slots))
        i = j
    return buckets


def _self_columns(
    view: TreeView,
    dnodes: np.ndarray,
    cd: np.ndarray,
    groups: BodyGroups,
    row_of: np.ndarray | None,
) -> np.ndarray:
    """Column of each row's own point leaf in its group's direct list.

    Maps each direct entry's point body to its sorted row (through
    *row_of* when rows are permuted ids; out-of-range ids never match)
    and keeps those landing in their own group.  Returns ``n + 1``
    entries, -1 where a row does not meet itself (and for the pad row).
    """
    n = groups.n_bodies
    src = view.point_body[dnodes].astype(np.int64)
    ok = (src >= 0) & (src < n)
    if row_of is not None:
        src[ok] = row_of[src[ok]]
    e_g = np.repeat(np.arange(groups.n_groups, dtype=np.int64), cd)
    go = groups.offsets.astype(np.int64)
    own = np.nonzero(ok & (src >= go[e_g]) & (src < go[e_g + 1]))[0]
    doff = np.concatenate(([0], np.cumsum(cd, dtype=np.int64)))
    self_col = np.full(n + 1, -1, dtype=np.int64)
    self_col[src[own]] = own - doff[e_g[own]]
    return self_col


def build_flat_lists(
    view: TreeView,
    lists: InteractionLists,
    groups: BodyGroups,
    *,
    body_ids: np.ndarray | None = None,
    exact_bodies: Callable[[int], np.ndarray] | None = None,
    n3l: bool = True,
) -> FlatLists:
    """Pack *lists* into batches and split the near field by n3l, once
    per epoch.

    ``body_ids`` maps sorted rows into ``view.point_body``'s id space
    (identity when omitted).  Ids outside the local sorted range —
    the distributed runtime's foreign-target sentinel is negative —
    disable n3l.  Without n3l every entry stays a node source: direct
    leaves are batched as monopole nodes and each row's own leaf is
    zeroed, which is the one-sided semantics of ``eval_mode="gemm"``
    and of halo targets.  ``exact_bodies`` is a ``node -> body ids``
    callback (octree bucket leaves); when given under n3l, bucket bodies
    are folded into the body pools and :attr:`FlatLists.includes_exact`
    is set.
    """
    n = groups.n_bodies
    ng = lists.n_groups
    nn = view.com.shape[0]
    rdt = _idx_dtype(max(n, 1))
    empty = np.empty(0, dtype=rdt)

    counts = np.diff(lists.offsets).astype(np.int64)
    gsz = np.diff(groups.offsets).astype(np.int64)
    grow = np.repeat(np.arange(ng, dtype=np.int64), gsz)
    off = lists.offsets.astype(np.int64)
    apref = np.concatenate(
        ([0], np.cumsum(lists.approx, dtype=np.int64)))
    ca = apref[off[1:]] - apref[off[:-1]]  # approx entries per group

    ids = None if body_ids is None else np.asarray(body_ids)
    foreign = ids is not None and (ids.size == 0 or bool((ids < 0).any()))
    n3l = n3l and not foreign

    # Sorted row of each point-leaf id (identity unless permuted).
    row_of = None
    if ids is not None and not foreign:
        row_of = np.empty(n, dtype=np.int64)
        row_of[ids] = np.arange(n, dtype=np.int64)

    approx = lists.approx
    dnodes = lists.nodes[~approx]
    buckets = _dense_buckets(lists.nodes[approx], ca, groups, n, nn)

    if not n3l:
        cd = counts - ca
        self_col = None
        if not foreign:
            self_col = _self_columns(view, dnodes, cd, groups, row_of)
        buckets += _dense_buckets(dnodes, cd, groups, n, nn,
                                  approx=False, self_col=self_col)
        no_segs = _segments(empty)
        return FlatLists(buckets, empty, empty, no_segs, empty, empty,
                         no_segs, pairs_naive=0, includes_exact=False)

    # ---- direct entries (group, source row), sorted -----------------
    # Every row of group A meets exactly A's direct entries, so the
    # near field is decided at entry level: ordered pair (i, j) exists
    # iff entry (A, j) does (A = group of i), and is two-sided iff the
    # mirror entry (group of j, i) exists too.  A source appears at most
    # once per list (every body lives in exactly one leaf), so the
    # (group, row) keys are unique.
    e_g = np.repeat(np.arange(ng, dtype=np.int64), counts - ca)
    e_j = view.point_body[dnodes].astype(np.int64)
    if row_of is not None:
        e_j = row_of[e_j]
    if exact_bodies is not None and lists.exact_groups.size:
        ex_g: list[np.ndarray] = [e_g]
        ex_j: list[np.ndarray] = [e_j]
        for g, node in zip(lists.exact_groups, lists.exact_nodes):
            bodies = np.asarray(exact_bodies(int(node)), dtype=np.int64)
            ex_g.append(np.full(bodies.size, int(g), dtype=np.int64))
            ex_j.append(bodies if row_of is None else row_of[bodies])
        e_g = np.concatenate(ex_g)
        e_j = np.concatenate(ex_j)
    includes_exact = exact_bodies is not None

    key = np.sort(e_g * np.int64(n) + e_j)
    e_g, e_j = np.divmod(key, np.int64(max(n, 1)))
    e_b = grow[e_j]  # source group of each entry
    # Every entry meets |A| rows; a source row in A meets itself once.
    pairs_naive = int(gsz[e_g].sum()) - int(np.count_nonzero(e_b == e_g))

    if key.size:
        # Runs of one (A, source group B); runs are in group order, so
        # group A's runs are a contiguous CSR row of their own.
        brk = np.empty(key.size, dtype=bool)
        brk[0] = True
        brk[1:] = (e_g[1:] != e_g[:-1]) | (e_b[1:] != e_b[:-1])
        r_lo = np.nonzero(brk)[0]
        r_hi = np.append(r_lo[1:], key.size)
        nrun = np.bincount(e_g[r_lo], minlength=ng)
        c_row, c_run, _ = _row_major_expand(r_lo, nrun, grow, n)
        lo, hi = r_lo[c_run], r_hi[c_run]
        a, b = e_g[lo], e_b[lo]
        # The mirror of every pair (i, j in run) is the one entry (B, i).
        q = b * np.int64(n) + c_row
        p = np.searchsorted(key, q)
        mirrored = key[np.minimum(p, key.size - 1)] == q
        # Two-sided pairs are kept from their lower row.  Groups are
        # ascending row ranges, so that is whole runs with B > A and,
        # within A's own run, the part past the self entry (which is
        # the mirror, at p).  Unmirrored runs hold no self pair and are
        # one-sided whole.
        two = mirrored & (b >= a)
        lo2 = np.where(b == a, p + 1, lo)[two]
        one = ~mirrored
        # Combinations run row by row, runs by source group, entries by
        # row: the expansion is already (target, source)-sorted.
        j_rows = e_j.astype(rdt)
        s_t, s_s = _expand_ranges(c_row[two], lo2, hi[two], j_rows)
        o_t, o_s = _expand_ranges(c_row[one], lo[one], hi[one], j_rows)
    else:
        s_t = s_s = o_t = o_s = empty

    return FlatLists(
        buckets,
        s_t, s_s, _segments(s_t),
        o_t, o_s, _segments(o_t),
        pairs_naive=pairs_naive, includes_exact=includes_exact,
    )


def _eval_buckets(
    view: TreeView,
    flat: FlatLists,
    x_sorted: np.ndarray,
    G: float,
    eps2: float,
    acc: np.ndarray,
) -> tuple[int, int]:
    """``acc +=`` every node source's pull, bucket by bucket.

    Returns ``(interactions, quad_terms)``: the slots with a nonzero
    weight, and the accepted-node slots that carried a quadrupole term.
    """
    n, dim = x_sorted.shape
    com, quad = view.com, view.quad
    softened = eps2 > 0.0
    nonzero = 0
    quad_terms = 0
    nn = com.shape[0]
    com_ext = flat.buf("com_ext", (nn + 1, dim))
    com_ext[:nn] = com
    # Pad-node centre: outside the occupied box so r2 >= 1 for every
    # row, but of the same magnitude as the data — extreme values would
    # push ``pow`` onto its (~30x slower) slow path.  The pad's zero
    # mass is what actually cancels its weight.
    lo = x_sorted.min(axis=0)
    hi = x_sorted.max(axis=0)
    com_ext[nn] = hi + (hi - lo) + 1.0
    # G folded into the gathered masses: one multiply per node, not
    # per pair.
    gme = flat.buf("gm_ext", (nn + 1,))
    np.multiply(view.mass, G, out=gme[:nn])
    gme[nn] = 0.0
    quad_ext = None
    if quad is not None:
        quad_ext = flat.buf("quad_ext", (nn + 1, dim, dim))
        quad_ext[:nn] = quad
        quad_ext[nn] = 0.0  # the pad node carries no quadrupole
    x_ext = flat.buf("x_ext", (n + 1, dim))
    x_ext[:n] = x_sorted
    x_ext[n] = 0.0
    acc_ext = flat.buf("acc_ext", (n + 1, dim))
    acc_ext[:] = 0.0
    for bucket in flat.buckets:
        gb, K = bucket.node_mat.shape
        B = bucket.row_mat.shape[1]
        BK = B * K
        gc = max(1, (1 << 18) // BK)  # ~2 MB chunk scratch
        gc = min(gc, gb)
        P = flat.buf("dP", (gc, B, K))
        C = flat.buf("dC", (gc, K, dim))
        MN = flat.buf("dM", (gc, K))
        c2 = flat.buf("dc2", (gc, K))
        X = flat.buf("dX", (gc, B, dim))
        F = flat.buf("dF", (gc, B, dim))
        x2 = flat.buf("dx2", (gc, B))
        msk = None
        if not softened:
            msk = flat.buf("dK", (gc, B, K), dtype=bool)
        slots = bucket.self_slots
        qsub = 0
        if quad_ext is not None and bucket.approx:
            qsub = max(1, QUAD_SLOTS // BK)
            quad_terms += bucket.n_real
        for c0 in range(0, gb, gc):
            c1 = min(gb, c0 + gc)
            g = c1 - c0
            nm = bucket.node_mat[c0:c1]
            rm = bucket.row_mat[c0:c1]
            Cg, Pg, Xg, Fg = C[:g], P[:g], X[:g], F[:g]
            np.take(com_ext, nm, axis=0, out=Cg)
            np.take(gme, nm, out=MN[:g])
            np.einsum("gkj,gkj->gk", Cg, Cg, out=c2[:g])
            np.take(x_ext, rm, axis=0, out=Xg)
            np.einsum("gbj,gbj->gb", Xg, Xg, out=x2[:g])
            x2[:g] += eps2
            np.matmul(Xg, Cg.transpose(0, 2, 1), out=Pg)
            Pg *= -2.0
            Pg += x2[:g, :, None]
            Pg += c2[:g, None, :]
            # max(r2, 0) + eps2 == max(r2 + eps2, eps2): clamp the rare
            # negative cancellation.
            np.maximum(Pg, eps2, out=Pg)
            with np.errstate(divide="ignore", invalid="ignore"):
                if msk is not None:
                    np.less_equal(Pg, 0.0, out=msk[:g])
                np.power(Pg, -1.5, out=Pg)
            # Mask before the mass multiply: a massless node's centre
            # and the pad row both sit at the origin, so r2 = 0 there
            # and inf * 0 would warn.  Masses are non-negative, so the
            # masked slots come out +0.0 either way.
            if msk is not None:
                np.copyto(Pg, 0.0, where=msk[:g])
            Pg *= MN[:g, None, :]
            if slots is not None:
                # A row's own leaf: x^2 + c^2 - 2 x.c differences two
                # near-equal products there, so its weight is zeroed.
                j0, j1 = np.searchsorted(slots, (c0 * BK, c1 * BK))
                own = slots[j0:j1] - c0 * BK
                Pf = Pg.reshape(-1)
                if softened:
                    nonzero -= int(np.count_nonzero(Pf[own]))
                Pf[own] = 0.0
            nr = bucket.n_rows[c0:c1]
            if softened:
                nonzero += int(nr @ np.count_nonzero(MN[:g], axis=1))
            else:
                nonzero += int(np.count_nonzero(Pg))
                for i in np.nonzero(nr < B)[0]:  # pad rows: not counted
                    nonzero -= int(np.count_nonzero(Pg[i, nr[i]:]))
            np.matmul(Pg, Cg, out=Fg)
            # Quadrupoles, on sub-batches cut to their real rows and
            # columns.
            for q0 in range(0, g, qsub) if qsub else ():
                q1 = min(g, q0 + qsub)
                bq = int(bucket.n_rows[c0 + q0:c0 + q1].max())
                kq = int(bucket.n_cols[c0 + q0:c0 + q1].max())
                dq = Cg[q0:q1, None, :kq] - Xg[q0:q1, :bq, None]
                r2q = np.einsum("gbkj,gbkj->gbk", dq, dq)
                r2q += eps2
                qt = np.broadcast_to(quad_ext[nm[q0:q1, :kq]][:, None],
                                     dq.shape + (dim,))
                Fg[q0:q1, :bq] += quadrupole_accel(
                    dq.reshape(-1, dim), r2q.reshape(-1),
                    qt.reshape(-1, dim, dim), G,
                ).reshape(dq.shape).sum(axis=2)
            np.einsum("gbk->gb", Pg, out=x2[:g])  # w row-sums
            Xg *= x2[:g, :, None]
            Fg -= Xg
            acc_ext[rm] += Fg
    acc += acc_ext[:n]
    return nonzero, quad_terms


def evaluate_flat(
    view: TreeView,
    flat: FlatLists,
    x_sorted: np.ndarray,
    *,
    G: float = 1.0,
    eps2: float = 0.0,
    m_sorted: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Evaluate prepared lists at current positions (sorted order).

    The node-source batches (one launch per :class:`DenseBucket`), then
    two body-pair kernels — two-sided and one-sided pairs — each
    streaming :data:`BLOCK` pairs at a time through *flat*'s scratch
    pools.  ``m_sorted`` (body masses in sorted order) is required
    whenever the body pools are non-empty.  Returns the accelerations
    plus the eval-stats dict of
    :func:`~repro.traversal.engine.evaluate_interaction_lists`:
    ``pairs``, ``interactions`` (nonzero weights), ``quad_terms``,
    ``flat_launches``, ``near_pairs_naive`` and ``near_pairs_evaluated``.
    """
    x_sorted = np.asarray(x_sorted, dtype=FLOAT)
    n, dim = x_sorted.shape
    acc = np.zeros((n, dim), dtype=FLOAT)
    n_two = flat.n_two_sided
    n_one = flat.n_one_sided
    if m_sorted is None and (n_two or n_one):
        raise ValueError(
            "flat lists carry body pairs; evaluate_flat needs m_sorted")

    softened = eps2 > 0.0
    launches = len(flat.buckets)
    nonzero = quad_terms = 0
    if flat.buckets:
        nonzero, quad_terms = _eval_buckets(view, flat, x_sorted, G, eps2,
                                            acc)
    if n_two or n_one:
        gms = flat.buf("gms", (n,))
        np.multiply(np.asarray(m_sorted, dtype=FLOAT), G, out=gms)
        d = flat.buf("d", (BLOCK, dim))
        d2 = flat.buf("d2", (BLOCK, dim))
        xb = flat.buf("x", (BLOCK, dim))
        r2 = flat.buf("r2", (BLOCK,))
        w = flat.buf("w", (BLOCK,))
        mb = flat.buf("m", (BLOCK,))
        mb2 = flat.buf("m2", (BLOCK,))
        tmp = flat.buf("tmp", (BLOCK,))
        mask = flat.buf("mask", (BLOCK,), dtype=bool)

    # ---- two-sided pairs: one evaluation, both bodies ---------------
    if n_two:
        launches += 1
        for s0 in range(0, n_two, BLOCK):
            s1 = min(n_two, s0 + BLOCK)
            b = s1 - s0
            ti = flat.s_t[s0:s1]
            si = flat.s_s[s0:s1]
            db, xbb, r2b, wb = d[:b], xb[:b], r2[:b], w[:b]
            np.take(x_sorted, si, axis=0, out=db)
            np.take(x_sorted, ti, axis=0, out=xbb)
            db -= xbb
            np.einsum("ij,ij->i", db, db, out=r2b)
            r2b += eps2
            with np.errstate(divide="ignore", invalid="ignore"):
                np.power(r2b, -1.5, out=wb)  # mass-free kernel
            if softened:
                nonzero += 2 * b
            else:
                np.less_equal(r2b, 0.0, out=mask[:b])
                np.copyto(wb, 0.0, where=mask[:b])
                nonzero += 2 * (b - int(np.count_nonzero(mask[:b])))
            db *= wb[:, None]
            np.take(gms, ti, out=mb[:b])   # G m_t
            np.take(gms, si, out=mb2[:b])  # G m_s
            np.multiply(db, mb2[:b, None], out=d2[:b])
            _segment_add(acc, d2[:b], s0, flat.s_segs)
            np.multiply(db, mb[:b, None], out=d2[:b])
            for j in range(dim):
                np.copyto(tmp[:b], d2[:b, j])
                acc[:, j] -= np.bincount(si, weights=tmp[:b],
                                         minlength=n)

    # ---- one-sided pairs: target side only --------------------------
    if n_one:
        launches += 1
        for s0 in range(0, n_one, BLOCK):
            s1 = min(n_one, s0 + BLOCK)
            b = s1 - s0
            ti = flat.o_t[s0:s1]
            si = flat.o_s[s0:s1]
            db, xbb, r2b, wb = d[:b], xb[:b], r2[:b], w[:b]
            np.take(x_sorted, si, axis=0, out=db)
            np.take(x_sorted, ti, axis=0, out=xbb)
            db -= xbb
            np.einsum("ij,ij->i", db, db, out=r2b)
            r2b += eps2
            np.take(gms, si, out=mb[:b])
            with np.errstate(divide="ignore", invalid="ignore"):
                np.power(r2b, -1.5, out=wb)
            wb *= mb[:b]
            if softened:
                nonzero += b
            else:
                np.less_equal(r2b, 0.0, out=mask[:b])
                np.copyto(wb, 0.0, where=mask[:b])
                nonzero += b - int(np.count_nonzero(mask[:b]))
            db *= wb[:, None]
            _segment_add(acc, db, s0, flat.o_segs)

    return acc, {
        "pairs": flat.n_node_pairs + n_two + n_one,
        "interactions": nonzero,
        "quad_terms": quad_terms,
        "flat_launches": launches,
        "near_pairs_naive": flat.pairs_naive,
        "near_pairs_evaluated": n_two + n_one,
    }
