"""``eval_mode="gemm"`` is flat's dense batches without the n3l dedup.

It replaced a per-group BLAS loop (one ``group x list`` tile per group,
self-interactions zeroed from precomputed ``SelfPairs``).  That loop and
its self-pair builder are kept below as a test-only oracle.  Over octree
lists (permuted body ids, with and without bucket leaves) and BVH lists,
local and foreign targets, group sizes 1/7/32, multipole orders 1/2 and
``eps2`` zero and positive, the batch form must agree with the loop to
1e-12 relative L2 and report the same ``pairs`` / ``quad_terms`` /
``interactions``, with no flat launches or near-field pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.geometry.aabb import compute_bounding_box
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.accuracy import relative_l2_error
from repro.physics.multipole import quadrupole_accel
from repro.traversal import (
    build_flat_lists,
    build_interaction_lists,
    evaluate_interaction_lists,
    make_groups,
)
from repro.traversal.driver import hilbert_body_order
from repro.types import INDEX

THETA = 0.5


@dataclass(frozen=True)
class _SelfPairs:
    offsets: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _reference_self_pairs(view, lists, groups, body_ids):
    """(group row, list column) of every body meeting its own leaf."""
    ng = lists.n_groups
    pb = view.point_body[lists.nodes].astype(np.int64)
    if body_ids is None:
        src = pb
    else:
        ids = np.asarray(body_ids, dtype=np.int64)
        ok = ids >= 0
        size = int(ids[ok].max(initial=-1)) + 1
        row_of = np.full(max(size, 1), -1, dtype=np.int64)
        row_of[ids[ok]] = np.nonzero(ok)[0]
        src = np.full(pb.shape[0], -1, dtype=np.int64)
        cand = (pb >= 0) & (pb < row_of.shape[0])
        src[cand] = row_of[pb[cand]]
    counts = np.diff(lists.offsets).astype(np.int64)
    entry_group = np.repeat(np.arange(ng, dtype=np.int64), counts)
    go = groups.offsets.astype(np.int64)
    inside = ((src >= go[entry_group]) & (src < go[entry_group + 1])
              & (src >= 0))
    e = np.nonzero(inside)[0]
    g_e = entry_group[e]
    rows = (src[e] - go[g_e]).astype(INDEX)
    cols = (e - lists.offsets.astype(np.int64)[g_e]).astype(INDEX)
    offsets = np.zeros(ng + 1, dtype=INDEX)
    np.cumsum(np.bincount(g_e, minlength=ng), out=offsets[1:])
    return _SelfPairs(offsets, rows, cols)


def _reference_gemm(view, lists, groups, x_sorted, *, G, eps2, body_ids):
    """The per-group gemm loop as it stood before the batch form."""
    sp = _reference_self_pairs(view, lists, groups, body_ids)
    n, dim = x_sorted.shape
    acc = np.zeros((n, dim))
    com, mass, quad = view.com, view.mass, view.quad
    off, go = lists.offsets, groups.offsets
    pairs = nonzero = quad_terms = 0
    for g in range(groups.n_groups):
        lo_e, hi_e = int(off[g]), int(off[g + 1])
        if hi_e == lo_e:
            continue
        nodes = lists.nodes[lo_e:hi_e]
        r0, r1 = int(go[g]), int(go[g + 1])
        xg = x_sorted[r0:r1]
        b, k = r1 - r0, hi_e - lo_e
        cn = com[nodes]
        mn = mass[nodes]
        x2 = np.einsum("ij,ij->i", xg, xg)
        c2 = np.einsum("ij,ij->i", cn, cn)
        r2 = x2[:, None] + c2[None, :] - 2.0 * (xg @ cn.T)
        np.maximum(r2, 0.0, out=r2)
        r2c = r2 + eps2
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(r2c > 0.0, G * mn * r2c ** -1.5, 0.0)
        s0, s1 = int(sp.offsets[g]), int(sp.offsets[g + 1])
        w[sp.rows[s0:s1], sp.cols[s0:s1]] = 0.0
        acc_g = w @ cn - w.sum(axis=1)[:, None] * xg
        if quad is not None:
            ap = lists.approx[lo_e:hi_e]
            kq = int(np.count_nonzero(ap))
            if kq:
                can = cn[ap]
                dq = (can[None, :, :] - xg[:, None, :]).reshape(-1, dim)
                r2q = np.einsum("ij,ij->i", dq, dq) + eps2
                qt = np.broadcast_to(
                    quad[nodes[ap]], (b, kq, dim, dim)
                ).reshape(-1, dim, dim)
                acc_g += quadrupole_accel(dq, r2q, qt, G).reshape(
                    b, kq, dim).sum(axis=1)
                quad_terms += b * kq
        acc[r0:r1] = acc_g
        pairs += b * k
        nonzero += int(np.count_nonzero(w))
    return acc, {"pairs": pairs, "interactions": nonzero,
                 "quad_terms": quad_terms}


def _octree(x, m, order, bits=None):
    pool = build_octree_vectorized(x, bits=bits)
    compute_multipoles_vectorized(pool, x, m, None, order=order)
    return octree_tree_view(pool)


def _source(kind, order):
    """(x, m, view) of a source tree."""
    rng = np.random.default_rng(17)
    if kind == "bvh":
        x = rng.random((300, 3))
        m = rng.random(300) + 0.1
        return x, m, bvh_tree_view(build_bvh(x, m, order=order))
    if kind == "octree":
        x = rng.random((300, 3))
        m = rng.random(300) + 0.1
        return x, m, _octree(x, m, order)
    # Coincident quadruples plus a loose cloud on a 4-bit grid: bucket
    # leaves next to point leaves.
    x = np.concatenate([np.repeat(rng.random((30, 3)), 4, axis=0),
                        rng.random((120, 3))])
    m = rng.random(x.shape[0]) + 0.1
    return x, m, _octree(x, m, order, bits=4)


def _case(kind, order, group_size, foreign):
    x, m, view = _source(kind, order)
    if foreign:
        rng = np.random.default_rng(5)
        xt = rng.random((140, 3)) * 1.6 - 0.3
        x_sorted = xt[hilbert_body_order(xt, compute_bounding_box(xt))]
        body_ids = np.full(x_sorted.shape[0], -2, dtype=INDEX)
    elif view.body_order is None:
        body_ids = hilbert_body_order(x, view.box)  # permuted ids
        x_sorted = x[body_ids]
    else:
        body_ids = None  # the BVH's point ids are sorted rows
        x_sorted = x[view.body_order]
    groups = make_groups(x_sorted, group_size)
    lists = build_interaction_lists(view, groups, THETA)
    return view, lists, groups, x_sorted, body_ids


@pytest.mark.parametrize("eps2", [0.0, 2.5e-3])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("group_size", [1, 7, 32])
@pytest.mark.parametrize("foreign", [False, True])
@pytest.mark.parametrize("kind", ["octree", "octree-buckets", "bvh"])
def test_gemm_matches_per_group_loop(kind, foreign, group_size, order,
                                     eps2):
    view, lists, groups, x_sorted, body_ids = _case(kind, order,
                                                    group_size, foreign)
    ref, ref_stats = _reference_gemm(view, lists, groups, x_sorted, G=1.0,
                                     eps2=eps2, body_ids=body_ids)
    acc, stats = evaluate_interaction_lists(
        view, lists, groups, x_sorted, G=1.0, eps2=eps2,
        body_ids=body_ids, mode="gemm")
    assert np.all(np.isfinite(acc))
    assert relative_l2_error(acc, ref) <= 1e-12
    for key in ("pairs", "quad_terms", "interactions"):
        assert stats[key] == ref_stats[key], key
    assert stats["flat_launches"] == 0
    assert stats["near_pairs_naive"] == stats["near_pairs_evaluated"] == 0
    # The batch preparation is the same kernel, cached or built per call.
    flat = build_flat_lists(view, lists, groups, body_ids=body_ids,
                            n3l=False)
    again, _ = evaluate_interaction_lists(
        view, lists, groups, x_sorted, G=1.0, eps2=eps2,
        body_ids=body_ids, mode="gemm", flat=flat)
    assert again.tobytes() == acc.tobytes()


@pytest.mark.parametrize("kind", ["octree", "octree-buckets", "bvh"])
def test_oracle_matrix_is_not_vacuous(kind):
    """Local lists name every row's own leaf (so the self slots are
    exercised), the bucket input expands bucket leaves, and foreign
    targets meet no self slot at all."""
    view, lists, groups, x_sorted, body_ids = _case(kind, 2, 7, False)
    sp = _reference_self_pairs(view, lists, groups, body_ids)
    flat = build_flat_lists(view, lists, groups, body_ids=body_ids,
                            n3l=False)
    slots = [b.self_slots for b in flat.buckets if b.self_slots is not None]
    assert sum(s.size for s in slots) == sp.rows.size > 0
    assert any(not b.approx for b in flat.buckets)
    assert (lists.exact_groups.size > 0) == (kind == "octree-buckets")
    view, lists, groups, x_sorted, body_ids = _case(kind, 2, 7, True)
    flat = build_flat_lists(view, lists, groups, body_ids=body_ids,
                            n3l=False)
    assert all(b.self_slots is None for b in flat.buckets)
