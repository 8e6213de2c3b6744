"""The one list walk: grouped lists are the dual walk at ``cc_mac=0``.

:func:`build_interaction_lists` is a thin call of the dual
``(target, source)`` walk with the cell-cell branch off.  The contracts
under test:

* its output — all six arrays and their dtypes, ``steps`` included —
  is bitwise the level-synchronous frontier sweep the grouped build
  used to run, kept below as a test-only oracle, over octree and BVH
  views, multipole orders, group sizes, drift margins, tiny and
  coincident inputs and the LET's domain-box groups;
* the dual lists of a seeded octree and BVH input, at the default
  ``cc_mac`` and at 0, are pinned by digests recorded before the two
  walks were merged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.distributed.let import _domain_groups
from repro.distributed.partition import decompose
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.traversal import make_groups
from repro.traversal.driver import hilbert_body_order
from repro.traversal.dual import build_dual_lists, build_target_tree
from repro.traversal.engine import (
    KLASS_EXACT,
    KLASS_INTERNAL,
    KLASS_POINT,
    InteractionLists,
    TreeView,
    aabb_dmin2,
    build_interaction_lists,
    mac_threshold2,
)
from repro.traversal.groups import BodyGroups
from repro.types import INDEX
from repro.workloads import galaxy_collision, plummer_sphere


def _reference_frontier_sweep(
    view: TreeView, groups: BodyGroups, theta: float,
    *, mac_margin: float = 0.0,
) -> InteractionLists:
    """The grouped build as it stood before it became the dual walk.

    Level-synchronous frontier sweep: every round tests the MAC for all
    pending (group, node) pairs at once — visiting, and counting in
    ``steps``, empty children too — and expands the rejected internal
    nodes' children; emissions are then sorted per group by DFS rank.
    """
    ng = groups.n_groups
    theta2 = theta * theta
    steps = np.zeros(ng, dtype=np.int64)
    empty_idx = np.empty(0, dtype=INDEX)
    if ng == 0:
        return InteractionLists(
            np.zeros(1, dtype=INDEX), empty_idx, np.empty(0, dtype=bool),
            empty_idx, empty_idx, steps, theta, mac_margin,
        )

    klass = view.klass
    size2 = view.size2
    com = view.com
    first_child = view.first_child
    branch = view.branch
    glo = groups.lo
    ghi = groups.hi

    rows_g: list[np.ndarray] = []
    rows_nd: list[np.ndarray] = []
    rows_ap: list[np.ndarray] = []
    ex_g: list[np.ndarray] = []
    ex_nd: list[np.ndarray] = []

    g = np.arange(ng, dtype=INDEX)
    nd = np.zeros(ng, dtype=INDEX)
    while g.size:
        steps += np.bincount(g, minlength=ng)
        kl = klass[nd]
        internal = kl == KLASS_INTERNAL
        dmin2 = aabb_dmin2(glo[g], ghi[g], com[nd])
        accept = internal & (size2[nd] < mac_threshold2(dmin2, theta2,
                                                        mac_margin))
        emit = accept | (kl == KLASS_POINT)
        if emit.any():
            rows_g.append(g[emit])
            rows_nd.append(nd[emit])
            rows_ap.append(accept[emit])
        exact = kl == KLASS_EXACT
        if exact.any():
            ex_g.append(g[exact])
            ex_nd.append(nd[exact])

        expand = internal & ~accept
        if not expand.any():
            break
        base = first_child[nd[expand]]
        nd = (base[:, None] + np.arange(branch, dtype=INDEX)).ravel()
        g = np.repeat(g[expand], branch)

    if rows_g:
        g_all = np.concatenate(rows_g)
        nd_all = np.concatenate(rows_nd)
        stride = INDEX(view.dfs_rank.shape[0])
        order = np.argsort(g_all * stride + view.dfs_rank[nd_all])
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
        order = np.argsort(eg * INDEX(view.dfs_rank.shape[0])
                           + view.dfs_rank[en])
        exact_groups, exact_nodes = eg[order], en[order]
    else:
        exact_groups = exact_nodes = empty_idx
    return InteractionLists(offsets, nodes, approx,
                            exact_groups, exact_nodes, steps, theta, mac_margin)


_ARRAYS = ("offsets", "nodes", "approx", "exact_groups", "exact_nodes",
           "steps")


def _assert_same_lists(got: InteractionLists, ref: InteractionLists) -> None:
    for name in _ARRAYS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert (got.theta, got.mac_margin) == (ref.theta, ref.mac_margin)


def _view(kind: str, x: np.ndarray, m: np.ndarray, *, order: int = 1):
    """(tree view, curve-sorted positions) as the force driver groups."""
    if kind == "octree":
        pool = build_octree_vectorized(x)
        compute_multipoles_vectorized(pool, x, m, None, order=order)
        view = octree_tree_view(pool)
        return view, x[hilbert_body_order(x, view.box)]
    bvh = build_bvh(x, m, order=order)
    return bvh_tree_view(bvh), bvh.x_sorted


def _check(view, groups, theta, mac_margin=0.0) -> InteractionLists:
    got = build_interaction_lists(view, groups, theta, mac_margin=mac_margin)
    _assert_same_lists(
        got, _reference_frontier_sweep(view, groups, theta,
                                       mac_margin=mac_margin))
    return got


KINDS = ["octree", "bvh"]


class TestMatchesFrontierSweep:
    @pytest.mark.parametrize("mac_margin", [0.0, 0.02])
    @pytest.mark.parametrize("group_size", [1, 7, 32])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matrix(self, kind, order, group_size, mac_margin):
        s = plummer_sphere(600, seed=4)
        view, xs = _view(kind, s.x, s.m, order=order)
        lists = _check(view, make_groups(xs, group_size), 0.5, mac_margin)
        assert lists.n_approx > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("group_size", [1, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_tiny_inputs(self, kind, n, group_size):
        rng = np.random.default_rng(n)
        x = rng.random((n, 3))
        view, xs = _view(kind, x, rng.random(n) + 0.1)
        _check(view, make_groups(xs, group_size), 0.5)

    @pytest.mark.parametrize("group_size", [1, 7])
    def test_coincident_bodies_alone(self, group_size):
        """Three coincident bodies: the octree root is a bucket leaf."""
        x = np.zeros((3, 3)) + 0.25
        view, xs = _view("octree", x, np.ones(3))
        lists = _check(view, make_groups(xs, group_size), 0.5)
        assert lists.exact_nodes.size

    @pytest.mark.parametrize("group_size", [1, 7, 32])
    def test_coincident_bodies_in_cloud(self, group_size):
        """A bucket leaf deep in the tree, reached by several groups."""
        s = plummer_sphere(300, seed=8)
        x = s.x.copy()
        x[1:3] = x[0]
        view, xs = _view("octree", x, s.m)
        lists = _check(view, make_groups(xs, group_size), 0.5)
        assert lists.exact_nodes.size

    @pytest.mark.parametrize("mac_margin", [0.0, 0.05])
    @pytest.mark.parametrize("kind", KINDS)
    def test_let_domain_groups(self, kind, mac_margin):
        """The LET sizing walk: one group per destination domain box."""
        s = plummer_sphere(800, seed=9)
        dec = decompose(s.x, 4)
        lo, hi = dec.domain_boxes(s.x)
        src = dec.members(0)
        view, _ = _view(kind, s.x[src], s.m[src])
        groups = _domain_groups(lo[1:], hi[1:])
        lists = _check(view, groups, 0.5, mac_margin)
        assert np.all(lists.steps > 0)

    def test_no_groups(self):
        s = plummer_sphere(50, seed=1)
        view, xs = _view("bvh", s.x, s.m)
        _check(view, make_groups(xs[:0], 4), 0.5)


def _dual_digest(dual) -> str:
    """Digest of the walk's lists: near CSR, buckets and far pairs."""
    h = hashlib.sha256()
    arrays = [(name, getattr(dual, name)) for name in _ARRAYS[:-1]]
    arrays += [("far_t", dual.far_t), ("far_s", dual.far_s)]
    for name, a in arrays:
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: (input, cc_mac) -> (digest, n_far, mac_evals, steps total).  The
#: digests and ``n_far`` are the lists as they stood before the grouped
#: and dual walks became one; ``steps`` counts the empty children met at
#: leaf targets (as the grouped walk always did) and ``mac_evals`` is
#: ``steps`` plus the cell-cell tests, each visit once.  ``None`` stands
#: for build_dual_lists' default cc_mac.
_PINNED = {
    ("octree", None): (
        "f75ecc70488cd89671f205b823f8f8e730c5cc53e4d76394b78cf44610f354a9",
        11641, 189892, 164302),
    ("bvh", None): (
        "141ee519d945424d41cfbffc85bac5855f1c8bbafe77f2f245cb46e947316c32",
        5932, 86788, 70471),
    ("octree", 0.0): (
        "c488e2bd01b0c1675f7aa6a32c9187860b0986477b2e94d99847ae65c683657f",
        0, 225974, 225974),
    ("bvh", 0.0): (
        "b950dd75082060330920f636f8c28456376f83b9f6cb5f24490e0740d55e7573",
        0, 97498, 97498),
}


@pytest.mark.parametrize("kind, cc_mac", sorted(_PINNED, key=str))
def test_dual_lists_pinned(kind, cc_mac):
    """Seeded dual lists — near arrays, far pairs, ``steps`` and
    ``mac_evals`` — bit for bit; at ``cc_mac=0`` every test is a
    leaf-target visit, as in the grouped walk."""
    if kind == "octree":
        s = plummer_sphere(1500, seed=3)
    else:
        s = galaxy_collision(1500, seed=3)
    view, xs = _view(kind, s.x, s.m)
    kw = {} if cc_mac is None else {"cc_mac": cc_mac}
    dual = build_dual_lists(view, build_target_tree(make_groups(xs, 16)),
                            0.5, **kw)
    digest, n_far, mac_evals, steps = _PINNED[kind, cc_mac]
    assert (dual.n_far, dual.mac_evals) == (n_far, mac_evals)
    assert int(dual.steps.sum()) == steps
    assert _dual_digest(dual) == digest
