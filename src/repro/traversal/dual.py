"""Dual-tree cell-cell force traversal with a local-expansion downsweep.

The grouped engine (:mod:`repro.traversal.engine`) is one-sided: every
body group re-derives its interaction list against the source tree, so
a well-separated *pair of cells* is re-classified and re-evaluated once
per target group.  The dual walk removes that redundancy.  Target
groups are organized into a balanced binary **target tree** (the same
implicit heap layout as the Hilbert BVH, built over the
Hilbert-contiguous group boxes), and a simultaneous walk over
(target node, source node) pairs classifies each pair:

* **far** — the source passes the conservative MAC against the target
  box *and* the target box is small against the same distance
  (``size_t < theta * cc_mac * dmin``): the pair is evaluated **once**
  via M2L into the target node's local expansion
  (:mod:`repro.physics.local_expansion`) and never touches the bodies
  below either cell again;
* **recurse** — otherwise the larger cell opens: the target splits
  whenever the source already passes its MAC (see below), else
  whichever cell is bigger;
* **near** — pairs reaching a leaf target are the grouped walk:
  accepted nodes and point leaves are emitted into ordinary per-group
  interaction lists (evaluated by the grouped evaluators),
  bucket leaves are recorded for exact expansion.

This is the codebase's only list walk.  The grouped build
(:func:`repro.traversal.engine.build_interaction_lists`) is the same
walk with the cell-cell branch off, which gives two structural
guarantees together with the split rule "if the source passes its MAC,
split the **target**, never the source":

1. **Exactness fallback** — with ``cc_mac = 0`` no pair is ever far and
   no source is ever split above a leaf target, so the walk is one
   source walk per group, started at the group's leaf target.  That is
   the grouped build itself, so the emitted lists — hence the forces —
   are bit-identical to ``traversal="grouped"`` by construction, and so
   is every charged counter (the grouped traversal *is* this walk at
   ``cc_mac = 0``: one list type, one evaluation, one charge).
2. **LET superset** — the walk only opens a source node that fails the
   conservative MAC against some target box, which is contained in the
   rank's domain box; failing the easier criterion implies failing the
   domain-level one, so every source node a multi-rank dual walk visits
   is already inside the one-sided LET halo the distributed runtime
   exchanges.  Multi-rank dual traversal therefore works unchanged.

Refit composability: both criteria are built against
``mac_threshold2(dmin2, theta2, mac_margin)`` — the drift-bounded MAC —
so cached lists remain provable supersets while the observed drift
stays inside the margin; :func:`repro.maintenance.drift.lists_valid` is
the gate (near entries per group, far pairs via a target-subtree drift
sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bvh.layout import BVHLayout, next_pow2
from repro.physics.local_expansion import (
    LocalExpansion,
    l2l_sweep,
    l2p_evaluate,
    m2l_accumulate,
)
from repro.traversal.engine import (
    KLASS_EXACT,
    KLASS_INTERNAL,
    KLASS_POINT,
    KLASS_SKIP,
    InteractionLists,
    TreeView,
    aabb_dmin2,
    evaluate_interaction_lists,
    mac_threshold2,
)
from repro.traversal.groups import BodyGroups
from repro.types import FLOAT, INDEX


@dataclass(frozen=True)
class TargetTree:
    """Balanced implicit binary tree over the Hilbert-contiguous groups.

    Leaf ``first_leaf + g`` is group ``g``'s AABB (padding leaves up to
    the next power of two are empty); internal boxes are unions, built
    bottom-up one level per round (or, root aside, left empty when the
    walk never reads them — :func:`build_target_tree`).
    ``center`` is the box centre (zero for empty nodes) — the expansion
    centre of the downsweep — and ``size2`` the squared longest side
    entering the cell-cell MAC.
    """

    layout: BVHLayout
    lo: np.ndarray       # (n_nodes, dim)
    hi: np.ndarray       # (n_nodes, dim)
    center: np.ndarray   # (n_nodes, dim)
    size2: np.ndarray    # (n_nodes,)
    count: np.ndarray    # (n_nodes,) bodies below
    n_groups: int

    @property
    def first_leaf(self) -> int:
        return self.layout.first_leaf

    def leaf_of(self, g: np.ndarray) -> np.ndarray:
        return self.layout.first_leaf + g


def build_target_tree(groups: BodyGroups, *,
                      internal: bool = True) -> TargetTree:
    """Bottom-up union sweep over the group boxes (heap order).

    ``internal=False`` fills the leaf level and the root only (box,
    count, centre and size), leaving the levels between empty: the walk
    at ``cc_mac = 0`` starts at the leaf targets and never reads above
    them, and without far pairs nothing downstream does either.
    """
    ng = groups.n_groups
    dim = groups.lo.shape[1] if ng else 3
    layout = BVHLayout(next_pow2(ng))
    nn = layout.n_nodes
    fl = layout.first_leaf
    lo = np.full((nn, dim), np.inf, dtype=FLOAT)
    hi = np.full((nn, dim), -np.inf, dtype=FLOAT)
    count = np.zeros(nn, dtype=np.int64)
    if ng:
        lo[fl:fl + ng] = groups.lo
        hi[fl:fl + ng] = groups.hi
        count[fl:fl + ng] = np.diff(groups.offsets)
    if internal:
        for level in range(layout.n_levels - 2, -1, -1):
            sl = layout.level_slice(level)
            cl = layout.level_slice(level + 1)
            k = sl.stop - sl.start
            lo[sl] = lo[cl].reshape(k, 2, dim).min(axis=1)
            hi[sl] = hi[cl].reshape(k, 2, dim).max(axis=1)
            count[sl] = count[cl].reshape(k, 2).sum(axis=1)
    elif fl:
        lo[0] = lo[fl:].min(axis=0)
        hi[0] = hi[fl:].max(axis=0)
        count[0] = count[fl:].sum()
    occupied = count > 0
    center = np.zeros((nn, dim), dtype=FLOAT)
    center[occupied] = 0.5 * (lo[occupied] + hi[occupied])
    side = np.zeros(nn, dtype=FLOAT)
    side[occupied] = (hi[occupied] - lo[occupied]).max(axis=1)
    return TargetTree(layout, lo, hi, center, side * side, count, ng)


def build_dual_lists(
    view: TreeView,
    tt: TargetTree,
    theta: float,
    *,
    cc_mac: float = 1.0,
    mac_margin: float = 0.0,
) -> InteractionLists:
    """Simultaneous walk over (target node, source node) pairs.

    Far pairs retire into the M2L list, near-field decisions at leaf
    targets are emitted as per-group interaction lists, everything else
    expands into the next frontier.  Both MACs share
    :func:`mac_threshold2`, so the drift margin inflates the opening
    radius of near *and* far acceptance.

    Level-synchronous: every round classifies all pending (target,
    source) pairs at once, so the Python loop runs depth-many rounds.
    Empty (``KLASS_SKIP``) sources are dropped before the MAC; those met
    at a group's leaf target still count in its ``steps``, as the
    grouped walk's visits.  Empty padding targets are dropped where a
    split creates them.  With the cell-cell branch off (``cc_mac = 0``)
    every pair above a leaf target would split the target, so the walk
    starts at the occupied leaf targets with the source root.

    Each round gathers its operands from axis-outermost ``(dim, n)``
    tables (the target boxes in one) by ``take``.
    """
    empty_idx = np.empty(0, dtype=INDEX)
    ng = tt.n_groups
    theta2 = theta * theta
    cc2 = cc_mac * cc_mac

    if ng == 0 or view.klass.shape[0] == 0 or tt.count[0] == 0:
        return InteractionLists(
            np.zeros(ng + 1, dtype=INDEX), empty_idx,
            np.empty(0, dtype=bool), empty_idx, empty_idx,
            np.zeros(ng, dtype=np.int64), theta, mac_margin, tt=tt,
            cc_mac=cc_mac,
        )

    klass = view.klass
    ssize2 = view.size2
    fl = tt.first_leaf
    tsize2 = tt.size2
    cc_on = cc_mac > 0.0
    dim = view.com.shape[1]
    # Axis-outermost tables: one take per round gathers a contiguous
    # row per axis.
    com = np.ascontiguousarray(view.com.T)
    tbox = np.concatenate((tt.lo.T, tt.hi.T))
    t_occupied = tt.count > 0

    rows_g: list[np.ndarray] = []
    rows_nd: list[np.ndarray] = []
    rows_ap: list[np.ndarray] = []
    ex_g: list[np.ndarray] = []
    ex_nd: list[np.ndarray] = []
    far_t: list[np.ndarray] = []
    far_s: list[np.ndarray] = []

    steps = np.zeros(ng, dtype=np.int64)
    cell_evals = 0
    T = (np.zeros(1, dtype=INDEX) if cc_on
         else fl + np.flatnonzero(t_occupied[fl:fl + ng]).astype(INDEX))
    S = np.zeros(T.shape[0], dtype=INDEX)
    kids = np.arange(view.branch, dtype=INDEX)
    # Boolean-mask selection and row gathers go through compress/take:
    # same elements, several times faster than fancy indexing here.
    while T.size:
        kl = klass.take(S)
        skip = kl == KLASS_SKIP
        if skip.any():
            steps += np.bincount(T.compress(skip & (T >= fl)) - fl,
                                 minlength=ng)
            live = ~skip
            T, S, kl = T.compress(live), S.compress(live), kl.compress(live)
        internal = kl == KLASS_INTERNAL
        tb = tbox.take(T, axis=1)
        dmin2 = aabb_dmin2(tb[:dim], tb[dim:], com.take(S, axis=1))
        thr = mac_threshold2(dmin2, theta2, mac_margin)
        s2 = ssize2.take(S)
        src_ok = (internal & (s2 < thr)) | (kl == KLASS_POINT)
        t_leaf = T >= fl
        if cc_on:
            # Cell-cell acceptance: source multipole valid for the whole
            # target box AND target small enough for the truncated
            # Taylor series; dmin2 > 0 keeps the expansion centre
            # strictly outside the source's softening ball.
            t2 = tsize2.take(T)
            far = src_ok & (t2 < cc2 * thr) & (dmin2 > 0.0)
            if far.any():
                far_t.append(T.compress(far))
                far_s.append(S.compress(far))
                t_leaf &= ~far

        # --- leaf targets: accept / emit / open the source ----------
        emit = t_leaf & src_ok
        if emit.any():
            rows_g.append(T.compress(emit))
            rows_nd.append(S.compress(emit))
            rows_ap.append(internal.compress(emit))
        exact = t_leaf & (kl == KLASS_EXACT)
        if exact.any():
            ex_g.append(T.compress(exact))
            ex_nd.append(S.compress(exact))
        # cc_mac=0 walks leaf targets only.
        leaf_T = T.compress(t_leaf) if cc_on else T
        steps += np.bincount(leaf_T - fl, minlength=ng)
        cell_evals += int(T.size - leaf_T.size)
        open_src = t_leaf & internal & ~src_ok

        nxt_T: list[np.ndarray] = []
        nxt_S: list[np.ndarray] = []
        if cc_on:
            # --- internal targets -----------------------------------
            # A source that already passes its MAC (or must be
            # expanded body-by-body) never opens above a leaf target:
            # descend the target instead.  This keeps multi-rank walks
            # inside the LET.
            t_int = ~t_leaf & ~far
            split_t = t_int & (src_ok | ~internal)
            rest_int = t_int & internal & ~src_ok
            bigger_src = s2 > t2
            open_src |= rest_int & bigger_src
            split_t |= rest_int & ~bigger_src
            if split_t.any():
                Tt = T.compress(split_t)
                St = S.compress(split_t)
                Tc = np.concatenate([2 * Tt + 1, 2 * Tt + 2])
                Sc = np.concatenate([St, St])
                full = t_occupied.take(Tc)
                if not full.all():
                    Tc, Sc = Tc.compress(full), Sc.compress(full)
                nxt_T.append(Tc)
                nxt_S.append(Sc)
        if open_src.any():
            base = view.first_child.take(S.compress(open_src))
            nxt_S.append((base[:, None] + kids).ravel())
            nxt_T.append(np.repeat(T.compress(open_src), view.branch))
        if not nxt_T:
            break
        T = np.concatenate(nxt_T)
        S = np.concatenate(nxt_S)

    # --- near lists: CSR in each group's DFS emission order ----------
    dfs_rank = view.dfs_rank
    stride = INDEX(dfs_rank.shape[0])
    if rows_g:
        g_all = np.concatenate(rows_g) - fl
        nd_all = np.concatenate(rows_nd)
        # Unique (group, DFS rank) keys; sorting them recovers each
        # group's stackless-DFS emission order.  At cc_mac=0 every
        # round emits in key order already, which a run-merging sort
        # exploits.
        order = np.argsort(g_all * stride + dfs_rank.take(nd_all),
                           kind=None if cc_on else "stable")
        nodes = nd_all.take(order)
        approx = np.concatenate(rows_ap).take(order)
        counts = np.bincount(g_all, minlength=ng)
    else:
        nodes = empty_idx
        approx = np.empty(0, dtype=bool)
        counts = np.zeros(ng, dtype=np.int64)
    offsets = np.zeros(ng + 1, dtype=INDEX)
    np.cumsum(counts, out=offsets[1:])
    if ex_g:
        eg = np.concatenate(ex_g) - fl
        en = np.concatenate(ex_nd)
        order = np.argsort(eg * stride + dfs_rank.take(en))
        exact_groups, exact_nodes = eg.take(order), en.take(order)
    else:
        exact_groups = exact_nodes = empty_idx
    # Deterministic far order (target, then source DFS rank): the M2L
    # scatter accumulates in this order, keeping the force bitwise
    # reproducible run to run.  The keys are unique, so any sort gives
    # this order.
    if far_t:
        ft = np.concatenate(far_t)
        fs = np.concatenate(far_s)
        order = np.argsort(ft * stride + dfs_rank.take(fs))
        ft, fs = ft.take(order), fs.take(order)
    else:
        ft = fs = empty_idx
    return InteractionLists(offsets, nodes, approx, exact_groups,
                            exact_nodes, steps, theta, mac_margin,
                            far_t=ft, far_s=fs, tt=tt, cc_mac=cc_mac,
                            cell_evals=cell_evals)


def evaluate_dual(
    view: TreeView,
    lists: InteractionLists,
    groups: BodyGroups,
    x_sorted: np.ndarray,
    *,
    G: float = 1.0,
    eps2: float = 0.0,
    body_ids: np.ndarray | None = None,
    mode: str = "auto",
    expansion_order: int = 1,
    ctx=None,
    flat=None,
    m_sorted: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Near tiles + far M2L -> L2L downsweep -> L2P, at current positions.

    The near side is :func:`evaluate_interaction_lists` unchanged
    (*flat* / *m_sorted* are forwarded to it — the batch preparation
    built against *lists*).  When no far pair was accepted (always at
    ``cc_mac = 0``) the expansion stage is skipped entirely — not even
    zeros are added — so the result is the grouped evaluation's.
    """
    acc, stats = evaluate_interaction_lists(
        view, lists, groups, x_sorted,
        G=G, eps2=eps2, body_ids=body_ids, mode=mode,
        flat=flat, m_sorted=m_sorted,
    )
    stats = dict(stats)
    stats["quad_far"] = 0
    if lists.n_far == 0:
        return acc, stats
    tt = lists.tt
    dim = x_sorted.shape[1]
    exp = LocalExpansion.zeros(tt.layout.n_nodes, dim, expansion_order)
    stats["quad_far"] = m2l_accumulate(
        exp, lists.far_t, lists.far_s, view.com, view.mass, tt.center,
        G=G, eps2=eps2, quad=view.quad,
    )
    l2l_sweep(exp, tt.layout, tt.center, ctx)
    g_of_row = np.repeat(np.arange(groups.n_groups, dtype=INDEX),
                         np.diff(groups.offsets))
    acc += l2p_evaluate(exp, tt.leaf_of(g_of_row), x_sorted, tt.center)
    return acc, stats
