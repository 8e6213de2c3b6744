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

from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import InteractionLists, TreeView, sq_norm
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

#: Padded-minus-real slots a bucket may hold (:func:`_pack`): about a
#: third of a chunk's tile.  10-30 k measured alike; 60 k lost most of
#: the gain (EXPERIMENTS.md, "Padding-bounded buckets and an
#: axis-outermost list walk").
PAD_SLOTS = 20_000

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


def _padded(src: np.ndarray, lo: np.ndarray, ln: np.ndarray,
            base: np.ndarray, size: int, pad: int, dtype) -> np.ndarray:
    """Ranges ``src[lo[i]:lo[i] + ln[i]]`` laid out from ``base[i]`` in
    one flat array of *size* entries, the rest *pad*: one scatter for
    every block of every bucket."""
    out = np.full(size, pad, dtype=dtype)
    at = np.arange(int(ln.sum()), dtype=np.int64)
    at += np.repeat(lo - _starts(ln), ln)  # source positions
    out[at + np.repeat(base - lo, ln)] = src.take(at)
    return out


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
    count in power-of-two classes and sorted by column count within a
    class; each bucket then takes the longest run of blocks whose padded
    tiles hold at most :data:`PAD_SLOTS` slots more than their real
    ones, found by one search per bucket (a lone block has no padding).
    Bounding the padding, not the fill, lets narrow blocks share one
    bucket and its fixed ~40 numpy calls per chunk while wide ones stop
    paying for slots that carry nothing.  *self_col*
    (``row_pad + 1`` entries, -1 for none) is the column of each row's
    own point leaf within its block.  Every bucket's matrices are views
    of two flat arrays, filled for all buckets at once.
    """
    keep = np.flatnonzero(col_len > 0)
    if keep.size == 0:
        return []
    rcls = np.floor(np.log2(row_len[keep]))
    o = np.lexsort((-col_len[keep], -rcls))
    order = keep[o]
    nr, nc = row_len[order], col_len[order]
    real = np.cumsum(nr * nc)  # real slots of blocks 0..j
    count = np.arange(1, order.size + 1)
    cls_end = np.append(np.flatnonzero(np.diff(rcls[o])) + 1, order.size)
    cuts = [0]
    i = 0
    for end in cls_end.tolist():
        while i < end:
            # Padded slots of the bucket [i, j] as j grows, less its
            # real slots: never decreasing, since a block adds a padded
            # tile that covers it.  Real slots before i move to the
            # bound.
            pad = np.maximum.accumulate(nr[i:end])
            pad *= count[:end - i]
            pad *= nc[i]
            pad -= real[i:end]
            bound = PAD_SLOTS - (int(real[i - 1]) if i else 0)
            i += max(1, int(np.searchsorted(pad, bound, side="right")))
            cuts.append(i)
    cuts = np.asarray(cuts)
    nb = np.diff(cuts)
    bmax = np.maximum.reduceat(nr, cuts[:-1])
    kmax = nc[cuts[:-1]]
    # Each block's bucket, row and column widths, and its place in the
    # flat row / column arrays.
    bw = np.repeat(bmax, nb)
    kw = np.repeat(kmax, nb)
    r_base, c_base = _starts(bw), _starts(kw)
    r_at = _starts(nb * bmax)
    c_at = _starts(nb * kmax)
    rdt = _idx_dtype(row_pad + 1)
    cdt = _idx_dtype(col_pad + 1)
    row_all = _padded(rows, row_lo[order], nr, r_base, int(bw.sum()),
                      row_pad, rdt)
    col_all = _padded(cols, col_lo[order], nc, c_base, int(kw.sum()),
                      col_pad, cdt)
    # The kernel gathers with ``mode="clip"``, which would read a wrong
    # row or source silently: an index outside its table fails here.
    if (row_all.min() < 0 or row_all.max() > row_pad
            or col_all.min() < 0 or col_all.max() > col_pad):
        raise IndexError(f"{kind} block indices outside their tables")
    buckets: list = []
    for b, (i, j) in enumerate(zip(cuts[:-1].tolist(), cuts[1:].tolist())):
        B, K = int(bmax[b]), int(kmax[b])
        row_mat = row_all[r_at[b]:r_at[b] + (j - i) * B].reshape(j - i, B)
        slots = None
        if self_col is not None:
            sc = self_col[row_mat]
            gi, r = np.nonzero(sc >= 0)
            if gi.size:
                slots = (gi * B + r) * K + sc[gi, r]
        buckets.append(DenseBucket(
            row_mat, col_all[c_at[b]:c_at[b] + (j - i) * K].reshape(j - i, K),
            nr[i:j], nc[i:j], kind, slots))
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
    in_i.reshape(-1)[rev.take(run_of.take(e)) * gmax
                     + e_j.take(e) - go.take(e_b.take(e))] = True
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
    apref = np.zeros(off[-1] + 1, dtype=np.int64)
    np.cumsum(lists.approx, out=apref[1:])
    ca = apref.take(off[1:]) - apref.take(off[:-1])  # approx per group
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
    dnodes = lists.nodes.compress(~approx)
    group_rows = (np.arange(n, dtype=np.int64), go[:-1], gsz)
    buckets = _pack("node", *group_rows, lists.nodes.compress(approx),
                    _starts(ca), ca, n, nn)

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
    # Sorted keys keep each group's entries together, in group order.
    e_g = np.repeat(np.arange(ng, dtype=np.int64),
                    np.bincount(e_g, minlength=ng))
    e_j = key - e_g * np.int64(n)
    e_b = grow[e_j]  # source group of each entry
    # Every entry meets |A| rows; a source row in A meets itself once.
    pairs_naive = int(gsz[e_g].sum()) - int(np.count_nonzero(e_b == e_g))
    if key.size:
        buckets += _near_blocks(e_g, e_j, e_b, go, n)
    return FlatLists(buckets, pairs_naive=pairs_naive,
                     includes_exact=includes_exact)


def _shapes(dim: int, g: int, B: int, K: int) -> dict:
    """Shape of every kernel operand for a chunk of *g* ``B x K``
    blocks: tiles, then axis-outermost row and column operands."""
    return {"P": (g, B, K), "S": (g, B, K), "hit": (g, B * K),
            "XA": (dim + 2, g, B), "YA": (dim + 2, g, K), "X": (dim, g, B),
            "SY": (dim + 1, g, K), "F": (dim + 1, g, B),
            "SX": (dim + 1, g, B), "R": (dim + 1, g, K)}


def _views(bufs: dict, shapes: dict) -> dict:
    """Each operand as the leading part of its flat scratch: contiguous
    whatever the chunk's block count."""
    return {k: bufs[k][:math.prod(v)].reshape(v) for k, v in shapes.items()}


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

    Operands are axis-outermost — ``(dim, chunk, B)`` rows and ``(dim,
    chunk, K)`` columns, gathered in one ``take`` each from a per-axis
    position table and multiplied in that layout (the BLAS products
    take them transposed) — so no elementwise pass runs over a 3-wide
    axis.  The slots left to explicit differences are collected per
    chunk and evaluated once per call.  Masses are gathered, and the
    slots with a massive source counted, once per bucket.
    """
    n, dim = x_sorted.shape
    com, quad = view.com, view.quad
    nn = com.shape[0]
    # Bodies, the two pads and the nodes (plus their pad) in one
    # axis-outermost position table: an explicit difference indexes
    # either source space.  Pads: the pad row below the occupied box,
    # the pad sources above it, so every pad slot has r2 >= 1 and stays
    # clear of the cancellation check, yet of the data's magnitude.
    # The pads' zero masses are what cancel their weights.
    lo = x_sorted.min(axis=0)
    hi = x_sorted.max(axis=0)
    pos = flat.buf("pos", (dim, n + nn + 3))
    pos[:, :n] = x_sorted.T
    pos[:, n] = lo - (hi - lo) - 1.0
    pos[:, n + 1] = pos[:, n + 2 + nn] = hi + (hi - lo) + 1.0
    pos[:, n + 2:n + 2 + nn] = com.T
    # G folded into the gathered masses: one multiply per source, not
    # per slot.
    gm = flat.buf("gm", (n + nn + 3,))
    gm[:] = 0.0
    if m_sorted is not None:
        np.multiply(np.asarray(m_sorted, dtype=FLOAT), G, out=gm[:n])
    np.multiply(view.mass, G, out=gm[n + 2:n + 2 + nn])
    x_pos, node_pos = pos[:, :n + 2], pos[:, n + 2:]
    gm_ext, gme = gm[:n + 2], gm[n + 2:]
    quad_ext = None
    if quad is not None:
        quad_ext = flat.buf("quad_ext", (nn + 1, dim, dim))
        quad_ext[:nn] = quad
        quad_ext[nn] = 0.0  # the pad node carries no quadrupole
    # Row sums and reactions land in *out*, in the order of
    # ``flat.targets``, and are scattered once at the end.
    out = flat.buf("out", (dim, flat.targets.size))
    o = 0
    # Slots left out of the tiles, per chunk: (target rows, sources in
    # *pos* columns, real-slot flags, two-sided?).
    hits: list[tuple] = []
    nonzero = quad_terms = 0
    # Blocks per chunk of every bucket, and one flat scratch per operand
    # sized for the largest chunk.
    chunk = [min(b.row_mat.shape[0],
                 max(1, CHUNK_SLOTS // (b.row_mat.shape[1]
                                        * b.col_mat.shape[1])))
             for b in flat.buckets]
    need: dict = {}
    for b, gc in zip(flat.buckets, chunk):
        for k, v in _shapes(dim, gc, b.row_mat.shape[1],
                            b.col_mat.shape[1]).items():
            need[k] = max(need.get(k, 0), math.prod(v))
    bufs = {k: flat.buf(k, (v,), dtype=bool if k == "hit" else FLOAT)
            for k, v in need.items()}
    for bucket, gc in zip(flat.buckets, chunk):
        kind = bucket.kind
        direct = kind != "node"
        mutual = kind in MUTUAL_KINDS
        body = kind in BODY_KINDS
        src_x, src_m = (x_pos, gm_ext) if body else (node_pos, gme)
        gb, K = bucket.col_mat.shape
        B = bucket.row_mat.shape[1]
        BK = B * K
        ops = _views(bufs, _shapes(dim, gc, B, K))
        tri = np.tri(B, K, dtype=bool) if kind == "tri" else None
        real_row = np.arange(B) < bucket.n_rows[:, None] if direct else None
        slots = bucket.self_slots
        qsub = 0
        if quad_ext is not None and kind == "node":
            qsub = max(1, QUAD_SLOTS // BK)
            quad_terms += bucket.n_real
        # Weights: the real slots whose source is massive (pads are
        # massless), both directions of a two-sided slot, none of a
        # row's own leaf.
        m_col = src_m.take(bucket.col_mat)
        m_row = src_m.take(bucket.row_mat) if mutual else None
        lhs = bucket.n_rows - 1 if kind == "tri" else bucket.n_rows
        nonzero += int(lhs @ np.count_nonzero(m_col, axis=1))
        if kind == "two":
            nonzero += int(bucket.n_cols @ np.count_nonzero(m_row, axis=1))
        if slots is not None:
            nonzero -= int(np.count_nonzero(m_col[slots // BK, slots % K]))
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
            if g < gc:  # the bucket's last, partial chunk
                ops = _views(bufs, _shapes(dim, g, B, K))
            # Axis-outermost operands of the tile: rows [-2 x, x^2 +
            # eps2, 1], columns [y, 1, y^2]; their product is r^2 + eps2.
            XA, YA, SY, Pg = ops["XA"], ops["YA"], ops["SY"], ops["P"]
            Xg, Yg, Mg = ops["X"], YA[:dim], SY[dim]
            # Indices are range-checked in ``_pack``; "clip" skips the
            # buffered copy ``take`` makes of *out* under "raise".
            np.take(x_pos, rm, axis=1, out=Xg, mode="clip")
            np.take(src_x, cm, axis=1, out=Yg, mode="clip")
            np.copyto(Mg, m_col[c0:c1])
            ctr = Xg[:, :, :1].copy()  # a real row of each block
            Xg -= ctr
            Yg -= ctr
            # Squares go to operand rows written only further down.
            x2 = sq_norm(Xg, XA[:dim], XA[dim])
            sq_norm(Yg, SY[:dim], YA[dim + 1])
            thr = 0.0
            if direct:
                # The rows' squared extent about the centre, R^2, bounds
                # the algebra's rounding where it matters: a column
                # farther than 2R from the centre is farther than R from
                # every row, so r^2 exceeds an eighth of the magnitudes
                # it is formed from.
                thr = CANCEL * np.where(real_row[c0:c1], x2, 0.0).max(1)
            x2 += eps2
            np.multiply(Xg, -2.0, out=XA[:dim])
            XA[dim + 1] = 1.0
            YA[dim] = 1.0
            np.matmul(XA.transpose(1, 2, 0), YA.transpose(1, 0, 2), out=Pg)
            # Excluded slots get r2 = inf, hence weight 0.
            if tri is not None:
                np.copyto(Pg, np.inf, where=tri)
            if slots is not None:
                j0, j1 = np.searchsorted(slots, (c0 * BK, c1 * BK))
                Pg.reshape(-1)[slots[j0:j1] - c0 * BK] = np.inf
            if mutual:
                SX = ops["SX"]
                MI = SX[dim]
                np.copyto(MI, m_row[c0:c1])
            # Slots the algebra cannot resolve leave the tile: their
            # whole contribution comes from explicit differences, as in
            # the tile kernel, with zero weight where r2 + eps2 = 0.  A
            # block's smallest slot tells whether any of its slots does.
            flat_p = Pg.reshape(g, BK)
            if (flat_p.min(axis=1) <= thr).any():
                hm = ops["hit"]
                np.less_equal(flat_p, np.reshape(thr, (-1, 1)), out=hm)
                hit = np.flatnonzero(hm)
                flat_p.reshape(-1)[hit] = np.inf
                gi, rest = np.divmod(hit, BK)
                bi, ki = np.divmod(rest, K)
                si = cm[gi, ki].astype(np.int64)
                if not body:
                    si += n + 2
                hits.append((rm[gi, bi], si,
                             (bi < nr[gi]) & (ki < nc[gi]), mutual))
            # r^-3 as 1 / (r2 sqrt(r2)): faster than ``pow`` and exact at
            # the excluded slots' r2 = inf.
            Sg = ops["S"]
            np.sqrt(Pg, out=Sg)
            Pg *= Sg
            np.reciprocal(Pg, out=Pg)

            # Row sums: [m y | m] @ P^T -> sum m w y - x sum m w.
            np.multiply(Yg, Mg, out=SY[:dim])
            Fg = ops["F"]
            np.matmul(SY.transpose(1, 0, 2), Pg.transpose(0, 2, 1),
                      out=Fg.transpose(1, 0, 2))
            Ag = out[:, o_rows + c0 * B:o_rows + c1 * B].reshape(dim, g, B)
            np.multiply(Xg, Fg[dim], out=Ag)
            np.subtract(Fg[:dim], Ag, out=Ag)
            # Quadrupoles, on sub-batches cut to their real rows and
            # columns.
            for q0 in range(0, g, qsub) if qsub else ():
                q1 = min(g, q0 + qsub)
                bq = int(nr[q0:q1].max())
                kq = int(nc[q0:q1].max())
                dq = np.empty((q1 - q0, bq, kq, dim), dtype=FLOAT)
                for d in range(dim):
                    np.subtract(Yg[d, q0:q1, None, :kq],
                                Xg[d, q0:q1, :bq, None], out=dq[..., d])
                r2q = np.einsum("gbkj,gbkj->gbk", dq, dq)
                r2q += eps2
                qt = np.broadcast_to(quad_ext[cm[q0:q1, :kq]][:, None],
                                     dq.shape + (dim,))
                Ag.transpose(1, 2, 0)[q0:q1, :bq] += quadrupole_accel(
                    dq.reshape(-1, dim), r2q.reshape(-1),
                    qt.reshape(-1, dim, dim), G,
                ).reshape(dq.shape).sum(axis=2)
            if mutual:
                # Reaction on the columns from the same tile:
                # [m x | m] @ P.
                np.multiply(Xg, MI, out=SX[:dim])
                Rg = ops["R"]
                np.matmul(SX.transpose(1, 0, 2), Pg, out=Rg.transpose(1, 0, 2))
                ARg = out[:, o_cols + c0 * K:o_cols + c1 * K].reshape(dim, g,
                                                                      K)
                np.multiply(Yg, Rg[dim], out=ARg)
                np.subtract(Rg[:dim], ARg, out=ARg)

    near_t = near_a = None
    if hits:
        near_t, near_a, zeros = _explicit(pos, gm, hits, eps2)
        nonzero -= zeros
    acc = np.empty((n, dim), dtype=FLOAT)
    for d in range(dim):
        a = np.bincount(flat.targets, weights=out[d], minlength=n + 2)
        if near_t is not None:
            a += np.bincount(near_t, weights=near_a[d], minlength=n + 2)
        acc[:, d] = a[:n]
    return acc, nonzero, quad_terms


def _explicit(pos: np.ndarray, gm: np.ndarray, hits: list,
              eps2: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The slots left out of the tiles, from explicit differences.

    *hits* holds per chunk ``(target rows, source columns of pos, real,
    two-sided)``.  Returns the scatter targets and ``(dim, ·)`` terms,
    in chunk order with a two-sided chunk's reactions after its row
    terms, and the real slots of zero weight whose source (or, for a
    reaction, target) is massive: the kernel counted those as
    interactions.
    """
    ti = np.concatenate([h[0] for h in hits]).astype(np.int64)
    si = np.concatenate([h[1] for h in hits])
    real = np.concatenate([h[2] for h in hits])
    d = pos.take(si, axis=1)
    d -= pos.take(ti, axis=1)
    r2 = sq_norm(d, np.empty_like(d), np.empty(ti.size, dtype=FLOAT))
    r2 += eps2
    zero = r2 <= 0.0
    r2[zero] = np.inf
    w = r2 ** -1.5
    row = d * (w * gm[si])
    zero &= real
    zeros = int(np.count_nonzero(gm[si[zero]]))
    t_parts: list = []
    a_parts: list = []
    lo = 0
    for h in hits:
        hi = lo + h[0].size
        t_parts.append(ti[lo:hi])
        a_parts.append(row[:, lo:hi])
        if h[3]:
            t_parts.append(si[lo:hi])
            a_parts.append(d[:, lo:hi] * -(w[lo:hi] * gm[ti[lo:hi]]))
            zeros += int(np.count_nonzero(gm[ti[lo:hi][zero[lo:hi]]]))
        lo = hi
    return (np.concatenate(t_parts), np.concatenate(a_parts, axis=1),
            zeros)


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
