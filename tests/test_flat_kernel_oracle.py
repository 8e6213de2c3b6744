"""The batch kernel against its previous form (``tests/flat_oracle.py``).

:func:`repro.traversal.flat._eval_buckets` runs on axis-outermost
operands, defers the explicit-difference slots to one pass per call and
gathers and counts masses once per bucket.  The point-major kernel it
replaced is kept as the oracle.
Over every bucket kind (``node`` / ``leaf`` / ``one`` / ``two`` /
``tri``), multipole orders 1 and 2, ``eps2`` zero and positive,
coincident bodies (the :data:`~repro.traversal.flat.CANCEL` path),
bucket leaves, massless bodies and foreign targets, the two must report
the same ``interactions`` and ``quad_terms`` exactly and agree to
:data:`BOUND` relative L2.  The bound is not zero because the three
BLAS products (the ``r^2`` tile, the row sums and the reactions) now
take transposed operands, for which OpenBLAS may pick another
micro-kernel and so round the sums differently.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.geometry.aabb import compute_bounding_box
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.traversal import build_flat_lists, evaluate_flat, make_groups
from repro.traversal.driver import _FOREIGN_BODY_ID, hilbert_body_order
from repro.traversal.engine import build_interaction_lists
from repro.traversal.flat import _eval_buckets, _pack
from repro.types import INDEX
from repro.workloads import plummer_sphere

from tests.flat_oracle import reference_eval_buckets

#: Relative L2 agreement with the point-major kernel.
BOUND = 1e-15


def _cloud(n: int, seed: int, *, twins: int = 0, massless: int = 0):
    """Plummer bodies; *twins* of them duplicated at identical positions
    (coincident pairs), the last *massless* of them tracers."""
    s = plummer_sphere(n, seed=seed)
    x, m = s.x.copy(), s.m.copy()
    if twins:
        x = np.concatenate([x, x[:twins]])
        m = np.concatenate([m, m[:twins]])
    if massless:
        m[-massless:] = 0.0
    return x, m


def _lists(alg: str, x, m, *, order: int, n3l: bool, bits=None,
           group_size: int = 16):
    """(view, flat lists, sorted x, sorted m) of one tree over x/m."""
    if alg == "bvh":
        bvh = build_bvh(x, m)
        view = bvh_tree_view(bvh)
        xs, ms, ids, exact = bvh.x_sorted, bvh.m_sorted, None, None
    else:
        pool = build_octree_vectorized(x, bits=bits)
        compute_multipoles_vectorized(pool, x, m, None, order=order)
        view = octree_tree_view(pool)
        perm = hilbert_body_order(x, view.box)
        xs, ms, ids, exact = x[perm], m[perm], perm, view.exact_bodies
    if order < 2:
        view = dataclasses.replace(view, quad=None)
    groups = make_groups(xs, group_size)
    lists = build_interaction_lists(view, groups, 0.5)
    flat = build_flat_lists(view, lists, groups, body_ids=ids,
                            exact_bodies=exact, n3l=n3l)
    return view, flat, xs, ms


def _agree(view, flat, xs, ms, eps2):
    got = _eval_buckets(view, flat, xs, ms, 1.0, eps2)
    ref = reference_eval_buckets(view, flat, xs, ms, 1.0, eps2)
    assert got[1:] == ref[1:]  # interactions, quad_terms
    assert np.all(np.isfinite(got[0]))
    scale = np.linalg.norm(ref[0])
    assert scale > 0
    assert np.linalg.norm(got[0] - ref[0]) <= BOUND * scale
    return got


@pytest.mark.parametrize("alg", ["bvh", "octree"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n3l", [True, False])
@pytest.mark.parametrize("eps2", [0.0, 1e-4])
def test_matches_point_major_kernel(alg, order, n3l, eps2):
    x, m = _cloud(600, seed=5, twins=12)
    view, flat, xs, ms = _lists(alg, x, m, order=order, n3l=n3l)
    kinds = {b.kind for b in flat.buckets}
    assert kinds >= ({"node", "one", "two", "tri"} if n3l
                     else {"node", "leaf"})
    _agree(view, flat, xs, ms, eps2)


def test_coincident_bodies_take_the_explicit_path():
    """Twins sit at r = 0: at eps2 = 0 their slots leave the tile and
    carry zero weight both ways, so each twin pair is two interactions
    short of the slot count."""
    twins = 30
    x, m = _cloud(300, seed=2, twins=twins)
    view, flat, xs, ms = _lists("bvh", x, m, order=1, n3l=True)
    _, inter, _ = _agree(view, flat, xs, ms, 0.0)
    slots = flat.n_node_pairs + 2 * flat.n_two_sided + flat.n_one_sided
    assert inter == slots - 2 * twins


@pytest.mark.parametrize("n3l", [True, False])
def test_octree_bucket_leaves(n3l):
    """A coarse grid forces multi-body buckets: under n3l their bodies
    are folded into the near-field blocks."""
    x, m = _cloud(500, seed=7, twins=5)
    view, flat, xs, ms = _lists("octree", x, m, order=2, n3l=n3l, bits=3)
    if n3l:
        assert flat.includes_exact
    _agree(view, flat, xs, ms, 1e-4)


@pytest.mark.parametrize("n3l", [True, False])
def test_massless_bodies_are_counted_per_slot(n3l):
    """Tracers carry no weight: the per-bucket count must skip their
    slots exactly as the oracle's per-chunk count does."""
    x, m = _cloud(400, seed=9, massless=40)
    view, flat, xs, ms = _lists("bvh", x, m, order=2, n3l=n3l)
    _agree(view, flat, xs, ms, 1e-4)


def test_foreign_targets():
    """Another rank's bodies as targets: one-sided node and leaf blocks
    with no body masses at all."""
    x, m = _cloud(500, seed=3)
    bvh = build_bvh(x, m)
    view = bvh_tree_view(bvh)
    other = _cloud(300, seed=4)[0] + 0.25
    xt = other[hilbert_body_order(other, compute_bounding_box(other))]
    groups = make_groups(xt, 16)
    lists = build_interaction_lists(view, groups, 0.5)
    flat = build_flat_lists(
        view, lists, groups,
        body_ids=np.full(len(xt), _FOREIGN_BODY_ID, dtype=INDEX))
    assert {b.kind for b in flat.buckets} <= {"node", "leaf"}
    _agree(view, flat, xt, None, 0.0)


def test_reused_lists_follow_new_masses():
    """One FlatLists evaluated with other masses — some zero — gives the
    result of lists prepared for those masses: nothing mass-dependent
    outlives a call."""
    x, m = _cloud(400, seed=6)
    view, flat, xs, ms = _lists("bvh", x, m, order=1, n3l=True)
    evaluate_flat(view, flat, xs, m_sorted=ms, eps2=1e-4)
    m2 = ms.copy()
    m2[::7] = 0.0
    again, s_again = evaluate_flat(view, flat, xs, m_sorted=m2, eps2=1e-4)
    fresh_flat = _lists("bvh", x, m, order=1, n3l=True)[1]
    fresh, s_fresh = evaluate_flat(view, fresh_flat, xs, m_sorted=m2,
                                   eps2=1e-4)
    assert np.array_equal(again, fresh)
    assert s_again == s_fresh


@pytest.mark.parametrize("n3l", [True, False])
def test_two_dimensional(n3l):
    """In 2-D the axis-outermost operands hold two rows per side."""
    rng = np.random.default_rng(8)
    x = rng.random((400, 2))
    x = np.concatenate([x, x[:6]])  # coincident pairs
    m = rng.random(406) + 0.5
    view, flat, xs, ms = _lists("bvh", x, m, order=1, n3l=n3l)
    _agree(view, flat, xs, ms, 0.0)


def test_pack_rejects_indices_outside_their_tables():
    """The kernel gathers with ``mode="clip"``, so a block index past
    its pad (or negative) must fail when the blocks are packed, not
    clamp to a wrong body or node."""
    rows = np.arange(4, dtype=np.int64)
    lo, ln = np.array([0]), np.array([4])
    assert len(_pack("node", rows, lo, ln, np.array([0, 2]), lo,
                     np.array([2]), 4, 3)) == 1
    with pytest.raises(IndexError):
        _pack("node", rows, lo, ln, np.array([0, 5]), lo, np.array([2]),
              4, 3)
    with pytest.raises(IndexError):
        _pack("one", np.array([0, 1, 2, 7]), lo, ln, np.array([0, 1]), lo,
              np.array([2]), 4, 5)
    with pytest.raises(IndexError):
        _pack("one", rows, lo, ln, np.array([-1, 1]), lo, np.array([2]),
              4, 5)
