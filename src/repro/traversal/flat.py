"""Batch evaluation of cached interaction lists.

The per-group tile kernel of :mod:`repro.traversal.engine` pays a
Python-loop iteration plus a handful of small-array temporaries for
every group; at production group sizes that loop dominates host time.
This module trades it for a few large kernels over index arrays
prepared once per list epoch (:func:`build_flat_lists`) and cached with
the lists.  Positions, masses and centres of mass are gathered every
step, so the preparation survives refits unchanged.

* **Rectangle blocks** — all work is blocks of target rows ``I`` x
  sources ``J``, padded into :class:`DenseBucket`\\ s of similar shape
  and run by one kernel, the i/j-blocked tile of Bonsai and of Tokuue &
  Ishiyama.  It forms one ``r^-3`` tile per block with the block-centred
  ``x^2 + y^2 - 2 x.y`` algebra in BLAS, takes row sums from ``P @ [m_J
  y_J | m_J]`` and a two-sided block's reaction on ``J`` from ``P^T @
  [m_I x_I | m_I]`` on the same tile.  Direct slots the algebra cannot
  resolve (:data:`CANCEL`) are evaluated from explicit differences, so
  coincident bodies get exactly zero weight at ``eps2 = 0``.

* **Kinds** — ``node``: a group's accepted nodes (with the quadrupole
  term on order-2 trees).  ``leaf``: without Newton's third law, a
  group's direct leaves as monopole nodes, each row's own leaf excluded
  through the bucket's self slots; node plus leaf buckets *are*
  ``eval_mode="gemm"``.  ``two`` / ``tri`` / ``one``: the near field
  under Newton's third law (n3l).

* **Newton's third law** — every row of group ``A`` meets exactly
  ``A``'s direct entries, so pair ``(i, j)`` is two-sided iff the mirror
  entry ``(group of j, i)`` exists, and the near field between ``A`` and
  a source group ``B`` is decided at entry level, never per pair.  The
  direct entries (bucket-leaf bodies folded in) are sorted by ``(group,
  source row)`` and cut into runs of one ``(A, B)``: ``J`` is the run,
  and ``I``, the rows of ``A`` that ``B`` lists, is the mirror run
  ``(B, A)``, found by one ``searchsorted``.  Each run yields a
  two-sided block ``I x J`` when ``B > A`` (``tri``, its strict upper
  triangle, when ``B = A``), evaluated once for both bodies — halving
  that share of the work — and a one-sided block of ``A``'s other rows
  x ``J`` (the mirror was absorbed into an accepted multipole), target
  side only.  Runs of one ``A`` with the same ``I`` merge along ``J``.
  Nothing is expanded to pairs.

* **Determinism** — row sums and reactions are scattered once per call
  with ``np.bincount``, which sums in index order, so results are
  bitwise reproducible run to run.  They match the tile kernel to
  rounding (~1e-15 relative); tile stays the bit-exactness reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.physics.local_expansion import scatter_add
from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import InteractionLists, TreeView
from repro.traversal.groups import BodyGroups
from repro.types import FLOAT

#: Slots per kernel chunk: one chunk's ``r^-3`` tile (512 kB) and its
#: row and column operands stay cache-resident through the passes over
#: it.
CHUNK_SLOTS = 1 << 16

#: Slots per quadrupole sub-batch.  The order-2 term materializes a
#: 3x3 tensor per (row, node) slot, so it runs on sub-batches about the
#: size of one group's tile, which keeps those temporaries in cache.
QUAD_SLOTS = 1 << 12

#: Direct slots whose algebraic ``r^2`` is at most this fraction of the
#: squared extent of the block's rows are taken out of the tile and
#: evaluated from explicit differences.  The algebra's rounding is a few
#: ulps of that extent, so every slot kept carries ``r^2`` to ~1e-13
#: relative, and coincident bodies (an algebraic residue, an explicit
#: zero) get exactly zero weight.  Accepted nodes are separated by the
#: MAC and only checked for ``r^2 <= 0``.
CANCEL = 2.0 ** -8

#: Kinds whose columns are body rows (sorted order), not tree nodes.
BODY_KINDS = ("one", "two", "tri")
#: Kinds that scatter the reaction on their columns, too.
MUTUAL_KINDS = ("two", "tri")


def _idx_dtype(bound: int):
    """Narrowest index dtype covering ``[0, bound)`` — int32 halves the
    streamed index bytes."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each of *lengths*' ranges begins."""
    return np.cumsum(lengths, dtype=np.int64) - lengths


@dataclass(frozen=True)
class DenseBucket:
    """Rectangle blocks of similar shape, padded to a common ``(B, K)``
    for one batched evaluation.

    ``row_mat[i, :]`` holds block ``i``'s target rows padded with the pad
    row, ``col_mat[i, :]`` its sources — tree nodes for ``node`` and
    ``leaf`` blocks, body rows otherwise — padded with a zero-mass pad
    source; real entries come first, in ascending order for body
    blocks.  The whole bucket runs as a handful of ``(chunk, B, K)``
    dense kernels without a per-block Python loop.
    """

    row_mat: np.ndarray   # (G_b, B) int
    col_mat: np.ndarray   # (G_b, K) int
    #: Real (unpadded) rows and columns of each block.
    n_rows: np.ndarray    # (G_b,)
    n_cols: np.ndarray    # (G_b,)
    #: ``node``, ``leaf``, ``one``, ``two`` or ``tri`` (module docstring).
    kind: str = "node"
    #: Where a row meets its own point leaf (``leaf`` blocks): each such
    #: row's column index, flattened to its position ``(i * B + row) *
    #: K + col`` in the bucket's slots, ascending; the kernel gives these
    #: slots zero weight.  None when no row does.
    self_slots: np.ndarray | None = None

    @property
    def n_real(self) -> int:
        """Unpadded slots — the strict upper triangle of a ``tri`` block
        — for the interaction counters."""
        if self.kind == "tri":
            return int(self.n_rows @ (self.n_rows - 1)) // 2
        return int(self.n_rows @ self.n_cols)


@dataclass
class FlatLists:
    """One epoch's interaction lists, prepared for batch evaluation as
    :class:`DenseBucket`\\ s of rectangle blocks, all in sorted-row
    space."""

    buckets: list
    #: Ordered near-field body pairs before dedup (self pairs excluded);
    #: ``pairs_naive / pairs_evaluated`` is the n3l dedup ratio.
    pairs_naive: int
    #: True when bucket-leaf (KLASS_EXACT) bodies were folded into the
    #: near-field blocks, letting the caller skip its scalar exact loop.
    includes_exact: bool
    _scratch: dict = field(default_factory=dict, repr=False)
    #: Where the kernel's output rows land: every bucket's ``row_mat``,
    #: then, for two-sided kinds, its ``col_mat``, flattened.
    targets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        parts = [np.empty(0, dtype=np.int64)]
        for b in self.buckets:
            parts.append(b.row_mat.reshape(-1))
            if b.kind in MUTUAL_KINDS:
                parts.append(b.col_mat.reshape(-1))
        self.targets = np.concatenate(parts)

    def _slots(self, *kinds: str) -> int:
        return sum(b.n_real for b in self.buckets if b.kind in kinds)

    @property
    def n_node_pairs(self) -> int:
        return self._slots("node", "leaf")

    @property
    def n_two_sided(self) -> int:
        return self._slots(*MUTUAL_KINDS)

    @property
    def n_one_sided(self) -> int:
        return self._slots("one")

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


def _padded(src: np.ndarray, lo: np.ndarray, ln: np.ndarray, width: int,
            pad: int, dtype) -> np.ndarray:
    """Ranges ``src[lo[i]:lo[i] + ln[i]]`` as rows of a ``width``-wide
    matrix, padded with *pad*: gather with clipped positions, then
    overwrite the tail."""
    pos = lo[:, None] + np.arange(width, dtype=np.int64)
    np.minimum(pos, (lo + ln - 1)[:, None], out=pos)
    mat = src[pos].astype(dtype, copy=False)
    mat[np.arange(width) >= ln[:, None]] = pad
    return np.ascontiguousarray(mat)


def _pack(
    kind: str,
    rows: np.ndarray,
    row_lo: np.ndarray,
    row_len: np.ndarray,
    cols: np.ndarray,
    col_lo: np.ndarray,
    col_len: np.ndarray,
    row_pad: int,
    col_pad: int,
    self_col: np.ndarray | None = None,
) -> list:
    """Pack blocks ``rows[row_lo:+row_len] x cols[col_lo:+col_len]`` into
    padded :class:`DenseBucket`\\ s.

    Blocks without columns are dropped.  The rest are binned by row
    count in power-of-two classes, sorted by column count within a
    class, and cut wherever a block is less than half as wide as the
    bucket's widest, so every block fills at least a quarter of its
    padded tile: each bucket costs a fixed ~50 numpy calls per chunk,
    which at these block sizes outweighs the padding.  *self_col*
    (``row_pad + 1`` entries, -1 for none) is the column of each row's
    own point leaf within its block.
    """
    keep = np.flatnonzero(col_len > 0)
    if keep.size == 0:
        return []
    rcls = np.floor(np.log2(row_len[keep]))
    o = np.lexsort((-col_len[keep], -rcls))
    order = keep[o]
    k_sorted = col_len[order]
    cls_end = np.append(np.flatnonzero(np.diff(rcls[o])) + 1, order.size)
    rdt = _idx_dtype(row_pad + 1)
    cdt = _idx_dtype(col_pad + 1)
    buckets: list = []
    i = 0
    for end in cls_end.tolist():
        while i < end:
            kmax = int(k_sorted[i])
            j = i + int(np.searchsorted(-k_sorted[i:end], -0.5 * kmax,
                                        side="right"))
            blk = order[i:j]
            nr, nc = row_len[blk], col_len[blk]
            bmax = int(nr.max())
            row_mat = _padded(rows, row_lo[blk], nr, bmax, row_pad, rdt)
            slots = None
            if self_col is not None:
                sc = self_col[row_mat]
                gi, r = np.nonzero(sc >= 0)
                if gi.size:
                    slots = (gi * bmax + r) * kmax + sc[gi, r]
            buckets.append(DenseBucket(
                row_mat, _padded(cols, col_lo[blk], nc, kmax, col_pad, cdt),
                nr, nc, kind, slots))
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
    self_col = np.full(n + 1, -1, dtype=np.int64)
    self_col[src[own]] = own - _starts(cd)[e_g[own]]
    return self_col


def _row_ids(keys: np.ndarray) -> np.ndarray:
    """Ids ``0..`` of the distinct rows of the 2-D array *keys*: equal
    rows share an id."""
    order = np.lexsort(keys.T)
    srt = keys[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


def _near_blocks(e_g: np.ndarray, e_j: np.ndarray, e_b: np.ndarray,
                 go: np.ndarray, n: int) -> list:
    """The n3l near field as ``two`` / ``tri`` / ``one`` buckets.

    *e_g*, *e_j*, *e_b* are the direct entries (target group, source
    row, source group), sorted by ``(group, source row)``; *go* the
    group offsets.  Rows and columns of every block come out ascending.
    """
    ne = e_g.size
    gsz = np.diff(go)
    ng = gsz.size
    brk = np.empty(ne, dtype=bool)
    brk[0] = True
    brk[1:] = (e_g[1:] != e_g[:-1]) | (e_b[1:] != e_b[:-1])
    r_lo = np.flatnonzero(brk)
    r_len = np.diff(np.append(r_lo, ne))
    nrun = r_lo.size
    run_of = np.repeat(np.arange(nrun, dtype=np.int64), r_len)
    a, b = e_g[r_lo], e_b[r_lo]
    # The mirror run (B, A) holds I, the rows of A that B lists; the
    # runs are sorted by (A, B), so one searchsorted finds it.
    rkey = a * ng + b
    q = b * ng + a
    rev = np.minimum(np.searchsorted(rkey, q), nrun - 1)
    has = rkey[rev] == q
    # I of every run as a mask over A's rows: the entries of run (B, A)
    # are rows of A, marked in the row of its mirror (A, B).
    gmax = int(gsz.max())
    in_i = np.zeros((nrun, gmax), dtype=bool)
    e = np.flatnonzero(has[run_of])
    in_i[rev[run_of[e]], e_j[e] - go[e_b[e]]] = True
    whole = np.count_nonzero(in_i, axis=1) == gsz[a]  # B lists all of A
    others = ~in_i & (np.arange(gmax) < gsz[a][:, None])
    # Runs of one A with the same I share the rows of their blocks: I
    # as 64-bit words, then equal (A, words) rows get one id.
    words = np.packbits(in_i, axis=1)
    words = np.pad(words, ((0, 0), (0, -words.shape[1] % 8))).view(np.uint64)
    rowset = _row_ids(np.column_stack((a.astype(np.uint64), words)))
    kinds = (
        # kind, runs, merge key, row membership
        ("two", has & (b > a), rowset, in_i),
        ("tri", (b == a) & (r_len > 1), np.arange(nrun), in_i),
        ("one", ~whole, rowset, others),
    )
    blocks: list = []
    for kind, sel, key, members in kinds:
        r = np.flatnonzero(sel)
        if r.size == 0:
            continue
        # Blocks with the same rows merge along J.
        _, blk = np.unique(key[r], return_inverse=True)
        nb = int(blk.max()) + 1
        o = np.argsort(blk, kind="stable")  # runs in block order
        first = r[o[_starts(np.bincount(blk, minlength=nb))]]
        bi, pos = np.nonzero(members[first])
        rows = go[a[first]][bi] + pos
        row_len = np.bincount(bi, minlength=nb)
        col_len = np.bincount(blk, weights=r_len[r], minlength=nb)
        col_len = col_len.astype(np.int64)
        # Columns: each block's runs' entries, laid out in block order
        # (run order within a block, so ascending rows).
        ln = r_len[r[o]]
        cols = e_j[np.repeat(r_lo[r[o]] - _starts(ln), ln)
                   + np.arange(int(ln.sum()))]
        blocks += _pack(kind, rows, _starts(row_len), row_len,
                        cols, _starts(col_len), col_len, n, n + 1)
    return blocks


def build_flat_lists(
    view: TreeView,
    lists: InteractionLists,
    groups: BodyGroups,
    *,
    body_ids: np.ndarray | None = None,
    exact_bodies: Callable[[int], np.ndarray] | None = None,
    n3l: bool = True,
) -> FlatLists:
    """Pack *lists* into rectangle-block batches, once per epoch.

    ``body_ids`` maps sorted rows into ``view.point_body``'s id space
    (identity when omitted).  Ids outside the local sorted range —
    the distributed runtime's foreign-target sentinel is negative —
    disable n3l.  Without n3l every entry stays a node source: direct
    leaves are batched as monopole nodes and each row's own leaf is
    excluded, which is the one-sided semantics of ``eval_mode="gemm"``
    and of halo targets.  ``exact_bodies`` is a ``node -> body ids``
    callback (octree bucket leaves); when given under n3l, bucket bodies
    are folded into the near-field blocks and
    :attr:`FlatLists.includes_exact` is set.
    """
    n = groups.n_bodies
    ng = lists.n_groups
    nn = view.com.shape[0]

    counts = np.diff(lists.offsets).astype(np.int64)
    go = groups.offsets.astype(np.int64)
    gsz = np.diff(go)
    off = lists.offsets.astype(np.int64)
    apref = np.concatenate(
        ([0], np.cumsum(lists.approx, dtype=np.int64)))
    ca = apref[off[1:]] - apref[off[:-1]]  # approx entries per group
    cd = counts - ca

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
    group_rows = (np.arange(n, dtype=np.int64), go[:-1], gsz)
    buckets = _pack("node", *group_rows, lists.nodes[approx], _starts(ca),
                    ca, n, nn)

    if not n3l:
        self_col = None
        if not foreign:
            self_col = _self_columns(view, dnodes, cd, groups, row_of)
        buckets += _pack("leaf", *group_rows, dnodes, _starts(cd), cd, n, nn,
                         self_col)
        return FlatLists(buckets, pairs_naive=0, includes_exact=False)

    # ---- direct entries (group, source row), sorted -----------------
    # A source appears at most once per list (every body lives in
    # exactly one leaf), so the (group, row) keys are unique.
    grow = np.repeat(np.arange(ng, dtype=np.int64), gsz)
    e_g = np.repeat(np.arange(ng, dtype=np.int64), cd)
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
        buckets += _near_blocks(e_g, e_j, e_b, go, n)
    return FlatLists(buckets, pairs_naive=pairs_naive,
                     includes_exact=includes_exact)


def _eval_buckets(
    view: TreeView,
    flat: FlatLists,
    x_sorted: np.ndarray,
    m_sorted: np.ndarray | None,
    G: float,
    eps2: float,
) -> tuple[np.ndarray, int, int]:
    """Every bucket's pull, block by block.

    Returns ``(acc, interactions, quad_terms)``: the accelerations, the
    slots with a nonzero weight (both directions of a two-sided slot),
    and the accepted-node slots that carried a quadrupole term.
    """
    n, dim = x_sorted.shape
    com, quad = view.com, view.quad
    nn = com.shape[0]
    # Pads: the pad row below the occupied box, the pad sources above
    # it, so every pad slot has r2 >= 1 and stays clear of the
    # cancellation check, yet of the data's magnitude.  The pads' zero
    # masses are what cancel their weights.
    lo = x_sorted.min(axis=0)
    hi = x_sorted.max(axis=0)
    x_ext = flat.buf("x_ext", (n + 2, dim))
    x_ext[:n] = x_sorted
    x_ext[n] = lo - (hi - lo) - 1.0
    x_ext[n + 1] = hi + (hi - lo) + 1.0
    # G folded into the gathered masses: one multiply per source, not
    # per slot.
    gm_ext = flat.buf("gm_ext", (n + 2,))
    gm_ext[:] = 0.0
    if m_sorted is not None:
        np.multiply(np.asarray(m_sorted, dtype=FLOAT), G, out=gm_ext[:n])
    com_ext = flat.buf("com_ext", (nn + 1, dim))
    com_ext[:nn] = com
    com_ext[nn] = x_ext[n + 1]
    gme = flat.buf("gme", (nn + 1,))
    np.multiply(view.mass, G, out=gme[:nn])
    gme[nn] = 0.0
    quad_ext = None
    if quad is not None:
        quad_ext = flat.buf("quad_ext", (nn + 1, dim, dim))
        quad_ext[:nn] = quad
        quad_ext[nn] = 0.0  # the pad node carries no quadrupole
    # Row sums and reactions land in *out*, in the order of
    # ``flat.targets``, and are scattered once at the end.
    out = flat.buf("out", (flat.targets.size, dim))
    o = 0
    # Explicit contributions of the slots left out of the tiles.
    near_t: list[np.ndarray] = []
    near_a: list[np.ndarray] = []
    nonzero = quad_terms = 0
    for bucket in flat.buckets:
        kind = bucket.kind
        direct = kind != "node"
        mutual = kind in MUTUAL_KINDS
        src_x, src_m = ((x_ext, gm_ext) if kind in BODY_KINDS
                        else (com_ext, gme))
        gb, K = bucket.col_mat.shape
        B = bucket.row_mat.shape[1]
        BK = B * K
        gc = min(gb, max(1, CHUNK_SLOTS // BK))
        P = flat.buf("P", (gc, B, K))
        S = flat.buf("S", (gc, B, K))
        hit_mask = flat.buf("hit", (gc, B, K), dtype=bool)
        X = flat.buf("X", (gc, B, dim))
        Y = flat.buf("Y", (gc, K, dim))
        M = flat.buf("M", (gc, K))
        # [x, x^2 + eps2, 1] . [-2 y, 1, y^2] = r^2 + eps2: one matmul.
        XA = flat.buf("XA", (gc, B, dim + 2))
        YA = flat.buf("YA", (gc, K, dim + 2))
        SY = flat.buf("SY", (gc, K, dim + 1))
        F = flat.buf("F", (gc, B, dim + 1))
        XA[..., dim + 1] = 1.0
        YA[..., dim] = 1.0
        if mutual:
            MI = flat.buf("MI", (gc, B))
            SX = flat.buf("SX", (gc, B, dim + 1))
            R = flat.buf("R", (gc, K, dim + 1))
        tri = np.tri(B, K, dtype=bool) if kind == "tri" else None
        slots = bucket.self_slots
        qsub = 0
        if quad_ext is not None and kind == "node":
            qsub = max(1, QUAD_SLOTS // BK)
            quad_terms += bucket.n_real
        o_rows = o
        o_cols = o = o + gb * B
        if mutual:
            o += gb * K
        for c0 in range(0, gb, gc):
            c1 = min(gb, c0 + gc)
            g = c1 - c0
            rm = bucket.row_mat[c0:c1]
            cm = bucket.col_mat[c0:c1]
            nr = bucket.n_rows[c0:c1]
            nc = bucket.n_cols[c0:c1]
            Xg, Yg, Mg, Pg = X[:g], Y[:g], M[:g], P[:g]
            xa, ya = XA[:g], YA[:g]
            np.take(x_ext, rm, axis=0, out=Xg)
            np.take(src_x, cm, axis=0, out=Yg)
            np.take(src_m, cm, out=Mg)
            ctr = Xg[:, :1].copy()  # a real row of each block
            Xg -= ctr
            Yg -= ctr
            x2 = xa[..., dim]
            y2 = ya[..., dim + 1]
            np.einsum("gbj,gbj->gb", Xg, Xg, out=x2)
            np.einsum("gkj,gkj->gk", Yg, Yg, out=y2)
            thr = 0.0
            if direct:
                # The rows' squared extent about the centre, R^2, bounds
                # the algebra's rounding where it matters: a column
                # farther than 2R from the centre is farther than R from
                # every row, so r^2 exceeds an eighth of the magnitudes
                # it is formed from.
                ext = np.where(np.arange(B) < nr[:, None], x2, 0.0).max(1)
                thr = (CANCEL * ext)[:, None, None]
            x2 += eps2
            xa[..., :dim] = Xg
            np.multiply(Yg, -2.0, out=ya[..., :dim])
            np.matmul(xa, ya.transpose(0, 2, 1), out=Pg)
            # Excluded slots get r2 = inf, hence weight 0.
            if tri is not None:
                np.copyto(Pg, np.inf, where=tri)
            own = None
            if slots is not None:
                j0, j1 = np.searchsorted(slots, (c0 * BK, c1 * BK))
                own = slots[j0:j1] - c0 * BK
                Pg.reshape(-1)[own] = np.inf
            if mutual:
                np.take(src_m, rm, out=MI[:g])
            # Slots the algebra cannot resolve leave the tile: their
            # whole contribution comes from explicit differences, as in
            # the tile kernel, with zero weight where r2 + eps2 = 0.
            hm = hit_mask[:g]
            np.less_equal(Pg, thr, out=hm)
            if hm.any():
                hit = np.flatnonzero(hm)
                Pg.reshape(-1)[hit] = np.inf
                gi, rest = np.divmod(hit, BK)
                bi, ki = np.divmod(rest, K)
                ti, si = rm[gi, bi], cm[gi, ki]
                d = src_x[si] - x_ext[ti]
                r2 = np.einsum("ij,ij->i", d, d)
                r2 += eps2
                zero = r2 <= 0.0
                r2[zero] = np.inf
                w = r2 ** -1.5
                near_t.append(ti)
                near_a.append(d * (w * src_m[si])[:, None])
                if mutual:
                    near_t.append(si)
                    near_a.append(d * -(w * gm_ext[ti])[:, None])
                zero &= (bi < nr[gi]) & (ki < nc[gi])
                nonzero -= int(np.count_nonzero(src_m[si[zero]]))
                if mutual:
                    nonzero -= int(np.count_nonzero(gm_ext[ti[zero]]))
            # r^-3 as 1 / (r2 sqrt(r2)): faster than ``pow`` and exact at
            # the excluded slots' r2 = inf.
            np.sqrt(Pg, out=S[:g])
            Pg *= S[:g]
            np.reciprocal(Pg, out=Pg)
            # Weights counted per real slot with a massive source.
            mc = np.count_nonzero(Mg, axis=1)
            nonzero += int(((nr - 1) if kind == "tri" else nr) @ mc)
            if kind == "two":
                nonzero += int(nc @ np.count_nonzero(MI[:g], axis=1))
            if own is not None:
                nonzero -= int(np.count_nonzero(Mg[own // BK, own % K]))

            # Row sums: P @ [m y | m] -> sum m w y - x sum m w.
            sy = SY[:g]
            np.multiply(Yg, Mg[..., None], out=sy[..., :dim])
            sy[..., dim] = Mg
            Fg = F[:g]
            Ag = out[o_rows + c0 * B:o_rows + c1 * B].reshape(g, B, dim)
            np.matmul(Pg, sy, out=Fg)
            np.multiply(Xg, Fg[..., dim:], out=Ag)
            np.subtract(Fg[..., :dim], Ag, out=Ag)
            # Quadrupoles, on sub-batches cut to their real rows and
            # columns.
            for q0 in range(0, g, qsub) if qsub else ():
                q1 = min(g, q0 + qsub)
                bq = int(nr[q0:q1].max())
                kq = int(nc[q0:q1].max())
                dq = Yg[q0:q1, None, :kq] - Xg[q0:q1, :bq, None]
                r2q = np.einsum("gbkj,gbkj->gbk", dq, dq)
                r2q += eps2
                qt = np.broadcast_to(quad_ext[cm[q0:q1, :kq]][:, None],
                                     dq.shape + (dim,))
                Ag[q0:q1, :bq] += quadrupole_accel(
                    dq.reshape(-1, dim), r2q.reshape(-1),
                    qt.reshape(-1, dim, dim), G,
                ).reshape(dq.shape).sum(axis=2)
            if mutual:
                # Reaction on the columns from the same tile.
                sx, Rg = SX[:g], R[:g]
                ARg = out[o_cols + c0 * K:o_cols + c1 * K].reshape(g, K, dim)
                np.multiply(Xg, MI[:g, :, None], out=sx[..., :dim])
                sx[..., dim] = MI[:g]
                np.matmul(Pg.transpose(0, 2, 1), sx, out=Rg)
                np.multiply(Yg, Rg[..., dim:], out=ARg)
                np.subtract(Rg[..., :dim], ARg, out=ARg)
    acc = np.zeros((n + 2, dim), dtype=FLOAT)
    scatter_add(acc, flat.targets, out)
    if near_t:
        scatter_add(acc, np.concatenate(near_t), np.concatenate(near_a))
    return acc[:n], nonzero, quad_terms


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

    One launch per :class:`DenseBucket`.  ``m_sorted`` (body masses in
    sorted order) is required whenever there are near-field body
    blocks.  Returns the accelerations plus the eval-stats dict of
    :func:`~repro.traversal.engine.evaluate_interaction_lists`:
    ``pairs``, ``interactions`` (nonzero weights), ``quad_terms``,
    ``flat_launches``, ``near_pairs_naive`` and ``near_pairs_evaluated``.
    """
    x_sorted = np.asarray(x_sorted, dtype=FLOAT)
    n, dim = x_sorted.shape
    n_two = flat.n_two_sided
    n_one = flat.n_one_sided
    if m_sorted is None and (n_two or n_one):
        raise ValueError(
            "flat lists carry body blocks; evaluate_flat needs m_sorted")
    acc = np.zeros((n, dim), dtype=FLOAT)
    nonzero = quad_terms = 0
    if flat.buckets:
        acc, nonzero, quad_terms = _eval_buckets(view, flat, x_sorted,
                                                 m_sorted, G, eps2)
    return acc, {
        "pairs": flat.n_node_pairs + n_two + n_one,
        "interactions": nonzero,
        "quad_terms": quad_terms,
        "flat_launches": len(flat.buckets),
        "near_pairs_naive": flat.pairs_naive,
        "near_pairs_evaluated": n_two + n_one,
    }
