"""The list walk's previous form, kept as a test-only oracle.

:func:`reference_build_dual_lists` is :func:`repro.traversal.dual.
build_dual_lists` as it was before the walk went axis-outermost:
point-major ``(k, dim)`` row gathers, the box distance summed by
``np.einsum`` (:func:`einsum_dmin2`, the engine's previous
``aabb_dmin2``), 64-bit working indices, visits counted every round,
empty padding targets dropped one round after they are split, and the
far pairs sorted stably.  The production walk must emit the same
:class:`~repro.traversal.engine.InteractionLists` field for field,
dtypes included.
"""

from __future__ import annotations

import numpy as np

from repro.traversal.dual import TargetTree
from repro.traversal.engine import (
    KLASS_EXACT,
    KLASS_INTERNAL,
    KLASS_POINT,
    KLASS_SKIP,
    InteractionLists,
    TreeView,
    mac_threshold2,
)
from repro.types import INDEX


def einsum_dmin2(lo: np.ndarray, hi: np.ndarray,
                 c: np.ndarray) -> np.ndarray:
    """Squared distance from points *c* to their boxes, all ``(k, dim)``,
    summed over the axis by ``np.einsum``."""
    d = np.subtract(lo, c)
    np.maximum(d, 0.0, out=d)
    e = np.subtract(c, hi)
    np.maximum(e, 0.0, out=e)
    d += e
    return np.einsum("ij,ij->i", d, d)


def reference_build_dual_lists(
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
    grouped walk's visits.  With the cell-cell branch off
    (``cc_mac = 0``) every pair above a leaf target would split the
    target, so the walk starts at the occupied leaf targets with the
    source root.
    """
    empty_idx = np.empty(0, dtype=INDEX)
    ng = tt.n_groups
    theta2 = theta * theta
    cc2 = cc_mac * cc_mac
    steps = np.zeros(ng, dtype=np.int64)

    if ng == 0 or view.klass.shape[0] == 0 or tt.count[0] == 0:
        return InteractionLists(
            np.zeros(ng + 1, dtype=INDEX), empty_idx,
            np.empty(0, dtype=bool), empty_idx, empty_idx,
            steps, theta, mac_margin, tt=tt, cc_mac=cc_mac,
        )

    klass = view.klass
    ssize2 = view.size2
    com = view.com
    first_child = view.first_child
    branch = view.branch
    fl = tt.first_leaf
    tsize2 = tt.size2
    tcount = tt.count
    tlo, thi = tt.lo, tt.hi
    cc_on = cc_mac > 0.0

    rows_g: list[np.ndarray] = []
    rows_nd: list[np.ndarray] = []
    rows_ap: list[np.ndarray] = []
    ex_g: list[np.ndarray] = []
    ex_nd: list[np.ndarray] = []
    far_t: list[np.ndarray] = []
    far_s: list[np.ndarray] = []

    cell_evals = 0
    T = (np.zeros(1, dtype=INDEX) if cc_on
         else fl + np.flatnonzero(tcount[fl:fl + ng] > 0).astype(INDEX))
    S = np.zeros(T.shape[0], dtype=INDEX)
    # Boolean-mask selection and row gathers go through compress/take:
    # same elements, several times faster than fancy indexing here.
    while T.size:
        kl = klass.take(S)
        skip = kl == KLASS_SKIP
        # Only a split target can be empty; cc_mac=0 never splits one.
        occupied = tcount.take(T) > 0 if cc_on else True
        if skip.any():
            met = skip & occupied & (T >= fl)
            steps += np.bincount(T.compress(met) - fl, minlength=ng)
        live = ~skip & occupied
        if not live.all():
            T, S, kl = T.compress(live), S.compress(live), kl.compress(live)
        internal = kl == KLASS_INTERNAL
        dmin2 = einsum_dmin2(tlo.take(T, axis=0), thi.take(T, axis=0),
                           com.take(S, axis=0))
        thr = mac_threshold2(dmin2, theta2, mac_margin)
        src_ok = (internal & (ssize2.take(S) < thr)) | (kl == KLASS_POINT)
        t_leaf = T >= fl
        if cc_on:
            # Cell-cell acceptance: source multipole valid for the whole
            # target box AND target small enough for the truncated
            # Taylor series; dmin2 > 0 keeps the expansion centre
            # strictly outside the source's softening ball.
            far = src_ok & (tsize2.take(T) < cc2 * thr) & (dmin2 > 0.0)
            if far.any():
                far_t.append(T.compress(far))
                far_s.append(S.compress(far))
                t_leaf &= ~far

        # --- leaf targets: accept / emit / open the source ----------
        emit = t_leaf & src_ok
        if emit.any():
            rows_g.append(T.compress(emit) - fl)
            rows_nd.append(S.compress(emit))
            rows_ap.append(internal.compress(emit))
        exact = t_leaf & (kl == KLASS_EXACT)
        if exact.any():
            ex_g.append(T.compress(exact) - fl)
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
            bigger_src = ssize2.take(S) > tsize2.take(T)
            open_src |= rest_int & bigger_src
            split_t |= rest_int & ~bigger_src
            if split_t.any():
                Tt = T.compress(split_t)
                St = S.compress(split_t)
                nxt_T.append(np.concatenate([2 * Tt + 1, 2 * Tt + 2]))
                nxt_S.append(np.concatenate([St, St]))
        if open_src.any():
            base = first_child.take(S.compress(open_src))
            nxt_S.append(
                (base[:, None] + np.arange(branch, dtype=INDEX)).ravel())
            nxt_T.append(np.repeat(T.compress(open_src), branch))
        if not nxt_T:
            break
        T = np.concatenate(nxt_T).astype(INDEX, copy=False)
        S = np.concatenate(nxt_S).astype(INDEX, copy=False)

    # --- near lists: CSR in each group's DFS emission order ----------
    stride = INDEX(view.dfs_rank.shape[0])
    if rows_g:
        g_all = np.concatenate(rows_g)
        nd_all = np.concatenate(rows_nd)
        # Unique (group, DFS rank) keys; sorting them recovers each
        # group's stackless-DFS emission order.  At cc_mac=0 every
        # round emits in key order already, which a run-merging sort
        # exploits.
        order = np.argsort(g_all * stride + view.dfs_rank.take(nd_all),
                           kind=None if cc_on else "stable")
        nodes = nd_all[order]
        approx = np.concatenate(rows_ap)[order]
        counts = np.bincount(g_all, minlength=ng)
    else:
        nodes = empty_idx
        approx = np.empty(0, dtype=bool)
        counts = np.zeros(ng, dtype=np.int64)
    offsets = np.zeros(ng + 1, dtype=INDEX)
    np.cumsum(counts, out=offsets[1:])
    if ex_g:
        eg = np.concatenate(ex_g)
        en = np.concatenate(ex_nd)
        order = np.argsort(eg * stride + view.dfs_rank[en])
        exact_groups, exact_nodes = eg[order], en[order]
    else:
        exact_groups = exact_nodes = empty_idx
    # Deterministic far order (target, then source DFS rank): the M2L
    # scatter accumulates in this order, keeping the force bitwise
    # reproducible run to run.
    if far_t:
        ft = np.concatenate(far_t)
        fs = np.concatenate(far_s)
        order = np.argsort(ft.astype(np.int64) * int(stride)
                           + view.dfs_rank[fs], kind="stable")
        ft, fs = ft[order], fs[order]
    else:
        ft = fs = empty_idx
    return InteractionLists(offsets, nodes, approx, exact_groups,
                            exact_nodes, steps, theta, mac_margin,
                            far_t=ft, far_s=fs, tt=tt, cc_mac=cc_mac,
                            cell_evals=cell_evals)
