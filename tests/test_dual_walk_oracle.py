"""The list walk against its previous form (``tests/dual_walk_oracle.py``).

:func:`repro.traversal.dual.build_dual_lists` gathers axis-outermost
operands, sums the box distance in a fixed order, works in 32-bit
indices, counts visits once after its loop, drops empty padding targets
where it splits them and sorts the far pairs with the default kind.
None of that may change a list: over octree and BVH views, ``cc_mac``
0 and 1.5, zero and positive drift margins, 2-D and 3-D inputs, and own
groups, foreign targets and the LET's domain-box groups, every
:class:`~repro.traversal.engine.InteractionLists` field must equal the
oracle's, dtype and value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.distributed.let import _domain_groups
from repro.distributed.partition import decompose
from repro.geometry.aabb import compute_bounding_box
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.traversal import make_groups
from repro.traversal.driver import hilbert_body_order
from repro.traversal.dual import build_dual_lists, build_target_tree
from repro.traversal.engine import aabb_dmin2
from repro.workloads import plummer_sphere

from tests.dual_walk_oracle import einsum_dmin2, reference_build_dual_lists

FIELDS = ("offsets", "nodes", "approx", "exact_groups", "exact_nodes",
          "steps", "far_t", "far_s")


def _bodies(dim: int, n: int, seed: int):
    """Plummer bodies (the first *dim* axes), eight of them doubled at
    identical positions so the octree has bucket leaves."""
    s = plummer_sphere(n, seed=seed)
    x = np.ascontiguousarray(s.x[:, :dim])
    return np.concatenate([x, x[:8]]), np.concatenate([s.m, s.m[:8]])


def _view(kind: str, x, m):
    """(tree view, curve-sorted positions) as the force driver groups."""
    if kind == "octree":
        pool = build_octree_vectorized(x)
        compute_multipoles_vectorized(pool, x, m, None, order=1)
        view = octree_tree_view(pool)
        return view, x[hilbert_body_order(x, view.box)]
    bvh = build_bvh(x, m)
    return bvh_tree_view(bvh), bvh.x_sorted


def _groups(targets: str, kind: str, dim: int):
    """(view, groups) for own groups, foreign targets or LET domains."""
    x, m = _bodies(dim, 700, seed=4)
    if targets == "let":
        dec = decompose(x, 4)
        lo, hi = dec.domain_boxes(x)
        src = dec.members(0)
        view, _ = _view(kind, x[src], m[src])
        return view, _domain_groups(lo[1:], hi[1:])
    view, xs = _view(kind, x, m)
    if targets == "foreign":
        other = _bodies(dim, 400, seed=5)[0] * 0.7 + 0.3
        xs = other[hilbert_body_order(other, compute_bounding_box(other))]
    return view, make_groups(xs, 16)


@pytest.mark.parametrize("targets", ["own", "foreign", "let"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mac_margin", [0.0, 0.02])
@pytest.mark.parametrize("cc_mac", [0.0, 1.5])
@pytest.mark.parametrize("kind", ["octree", "bvh"])
def test_walk_matches_oracle(kind, cc_mac, mac_margin, dim, targets):
    view, groups = _groups(targets, kind, dim)
    tt = build_target_tree(groups, internal=cc_mac > 0.0)
    got = build_dual_lists(view, tt, 0.5, cc_mac=cc_mac,
                           mac_margin=mac_margin)
    ref = reference_build_dual_lists(view, tt, 0.5, cc_mac=cc_mac,
                                     mac_margin=mac_margin)
    for name in FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.cell_evals == ref.cell_evals
    assert (got.theta, got.mac_margin, got.cc_mac) == (
        ref.theta, ref.mac_margin, ref.cc_mac)
    assert got.n_approx > 0
    if cc_mac > 0.0 and targets != "let":
        assert got.n_far > 0
    if kind == "octree" and targets == "own":
        assert got.exact_nodes.size  # the doubled bodies' bucket leaves


@pytest.mark.parametrize("dim", [2, 3])
def test_box_distance_is_the_einsum_sum(dim):
    """The axis-outermost distance equals the point-major einsum's bit
    for bit: points inside, outside and on degenerate boxes, at scales
    where the summation order shows in the last bit."""
    rng = np.random.default_rng(dim)
    k = 20000
    lo = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-3, 4, (k, 1))
    hi = lo + rng.random((k, dim)) * (rng.random((k, 1)) < 0.8)
    c = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-3, 4, (k, 1))
    c[::5] = lo[::5] + 0.5 * (hi[::5] - lo[::5])  # inside
    ref = einsum_dmin2(lo, hi, c)
    got = aabb_dmin2(np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T),
                     np.ascontiguousarray(c.T))
    assert np.array_equal(got, ref)
    assert np.count_nonzero(ref == 0.0) >= k // 5


def test_empty_padding_targets_are_dropped():
    """Five groups pad the target tree to eight leaves: the walk splits
    into the empty ones and must count no visit there."""
    x, m = _bodies(3, 72, seed=2)
    view, xs = _view("bvh", x, m)
    groups = make_groups(xs, 16)
    assert groups.n_groups == 5
    tt = build_target_tree(groups)
    got = build_dual_lists(view, tt, 0.5, cc_mac=1.5)
    ref = reference_build_dual_lists(view, tt, 0.5, cc_mac=1.5)
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.cell_evals == ref.cell_evals
    assert got.steps.shape == (5,) and np.all(got.steps > 0)
