"""The grouped / dual force driver, shared by every tree and caller.

Both trees reach CALCULATEFORCE's group-coherent forms through this one
function: it sees the tree only as a :class:`~repro.traversal.engine.
TreeView` (per-node arrays plus the tree's body order, bucket-leaf
callback and accounting constants), so the list cache, the evaluator
choice, the per-epoch precomputes, the exact bucket-leaf expansion, the
accounting and the un-permute exist once.  The distributed runtime's
cross-rank halo force is the same call with another rank's bodies as
foreign targets.  The paper's per-body walk is
:mod:`repro.traversal.lockstep` over the same view; both expand bucket
leaves through its :func:`~repro.traversal.lockstep.expand_exact`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hilbert import curve_keys
from repro.geometry.morton import max_bits
from repro.physics.gravity import GravityParams
from repro.traversal.dual import evaluate_dual
from repro.traversal.engine import (
    TreeView,
    account_grouped_force,
    build_interaction_lists,
    resolve_eval_mode,
)
from repro.traversal.flat import build_flat_lists
from repro.traversal.lockstep import GravityKernel, expand_exact
from repro.traversal.groups import make_groups
from repro.types import FLOAT, INDEX

#: body_ids sentinel for foreign targets: another rank's bodies can
#: never be this tree's point leaves, but their *local* indices can
#: collide with the source's, so the evaluators must be told that no
#: row matches any ``point_body`` entry (-1 marks non-point nodes,
#: hence -2).  Negative ids also switch off flat's n3l pairing.
_FOREIGN_BODY_ID = INDEX(-2)


def hilbert_body_order(x: np.ndarray, box) -> np.ndarray:
    """Hilbert-curve permutation of bodies the tree leaves unsorted."""
    return np.argsort(curve_keys(x, box, max_bits(x.shape[1])), kind="stable")


def tree_accelerations(
    view: TreeView,
    x: np.ndarray,
    m: np.ndarray,
    params: GravityParams = GravityParams(),
    *,
    traversal: str = "grouped",
    theta: float = 0.5,
    group_size: int = 32,
    cc_mac: float = 1.5,
    expansion_order: int = 2,
    ctx=None,
    cache: dict | None = None,
    eval_mode: str = "auto",
    mac_margin: float = 0.0,
    targets: np.ndarray | None = None,
    launches: float | None = None,
) -> np.ndarray:
    """Accelerations of bodies *x*/*m* (caller order) over the tree *view*.

    Bodies are put in curve order (``view.body_order``, or a Hilbert
    sort over ``view.box``) and partitioned into contiguous groups of
    *group_size*.  The groups are classified against the source tree
    by the one list walk of :mod:`repro.traversal.dual`, the emitted
    interaction lists evaluated as dense tiles.  ``traversal="dual"``
    turns the walk's cell-cell branch on (*cc_mac*), retiring
    well-separated cell pairs once via M2L + downsweep;
    ``"grouped"`` is the same walk, evaluation and charge at
    ``cc_mac=0``.

    *cache*, when given, is the structure-cache entry dict: the lists,
    the body order and the evaluator precomputes are stored in it and
    reused for as long as the tree structure itself is.  *mac_margin*
    inflates the opening radius of freshly built lists (the
    drift-bounded MAC of :mod:`repro.maintenance`).

    *targets*, when given, are foreign target positions (another rank's
    bodies, already in curve order) evaluated against the tree over
    *x*/*m*, which then only serve its bucket leaves: no sort, no
    Newton's-third-law pairing, the result in target order.
    *launches* overrides the kernel-launch charge (see
    :func:`~repro.traversal.engine.account_grouped_force`).

    At ``group_size=1`` (monopole order) the grouped result is
    bit-identical to the lockstep walk, and ``cc_mac=0`` makes the
    dual run the grouped one: same cache key, forces and counters.
    """
    x = np.asarray(x, dtype=FLOAT)
    foreign = targets is not None
    xt = np.asarray(targets, dtype=FLOAT) if foreign else x
    n, dim = xt.shape
    if n == 0 or view.mass.shape[0] == 0:
        return np.zeros((n, dim), dtype=FLOAT)

    cc = float(cc_mac) if traversal == "dual" else 0.0
    key = ("lists", float(theta), int(group_size), cc)
    cached = cache.get(key) if cache is not None else None
    built = cached is None or cached["groups"].n_bodies != n
    sorts = not foreign and view.body_order is None
    if built:
        if foreign:
            perm = None
        else:
            perm = hilbert_body_order(x, view.box) if sorts else view.body_order
        groups = make_groups(xt if foreign else x[perm], group_size)
        cached = {"perm": perm, "groups": groups,
                  "lists": build_interaction_lists(
                      view, groups, theta, cc_mac=cc, mac_margin=mac_margin)}
        if cache is not None:
            cache[key] = cached
    perm = cached["perm"]
    groups = cached["groups"]
    lists = cached["lists"]
    x_sorted = xt if foreign else x[perm]
    # point_body ids are sorted rows when the tree fixes the body order.
    body_ids = (np.full(n, _FOREIGN_BODY_ID, dtype=INDEX) if foreign
                else perm if sorts else None)

    mode = resolve_eval_mode(eval_mode, groups)
    # Per-epoch precomputes live inside the cached entry, so the
    # maintainer's list invalidation drops them in the same stroke.
    flat = None
    if mode != "tile":
        flat = cached.get(mode)
        if flat is None:
            # Under flat's n3l, bucket-leaf bodies fold into the
            # near-field pools and the scalar exact loop below is
            # skipped; gemm is the same batches without n3l.
            flat = cached[mode] = build_flat_lists(
                view, lists, groups, body_ids=body_ids,
                exact_bodies=view.exact_bodies, n3l=mode == "flat")

    m_sorted = None if foreign else np.asarray(m, dtype=FLOAT)[perm]
    acc_s, stats = evaluate_dual(
        view, lists, groups, x_sorted, G=params.G, eps2=params.eps2,
        body_ids=body_ids, mode=mode, flat=flat, m_sorted=m_sorted,
        expansion_order=expansion_order, ctx=ctx)

    # Exact expansion of bucket leaves: the lockstep walk's routine.
    pairs = stats["pairs"]
    if not (flat is not None and flat.includes_exact):
        kernel = GravityKernel(params)
        go = groups.offsets
        for g, node in zip(lists.exact_groups, lists.exact_nodes):
            bodies = view.exact_bodies(int(node))
            for row in range(int(go[g]), int(go[g + 1])):
                pairs += expand_exact(kernel, bodies,
                                      -1 if foreign else int(perm[row]),
                                      x_sorted[row], x, m, acc_s, row)

    if ctx is not None:
        account_grouped_force(
            ctx.counters, lists, groups,
            n_bodies=n, dim=dim,
            pairs=pairs, quad_terms=stats["quad_terms"],
            quad_far=stats["quad_far"], expansion_order=expansion_order,
            visit_bytes=view.visit_bytes, built=built,
            flops_per_visit=view.flops_per_visit,
            sort_comparisons=(float(n) * float(np.log2(max(n, 2)))
                              if built and sorts else 0.0),
            flat_launches=stats["flat_launches"],
            near_pairs_naive=stats["near_pairs_naive"],
            near_pairs_evaluated=stats["near_pairs_evaluated"],
            launches=launches,
        )

    if foreign:
        return acc_s
    out = np.empty_like(acc_s)
    out[perm] = acc_s
    return out
