"""Cross-rank (LET halo) force through the one force driver.

:func:`repro.distributed.let.remote_accelerations` is a thin call of
:func:`repro.traversal.driver.tree_accelerations` with the destination
rank's bodies as foreign targets.  It replaced a remote path of its own
(list build, evaluator call, vectorized bucket-leaf loop) plus the
runtime's hand copy of the driver's accounting; both are kept below as
a test-only oracle.  The contracts under test, over octree (with bucket
leaves) and BVH sources, grouped / dual / lockstep (one-body groups)
traversal, multipole orders 1 and 2, group sizes 1/7/32, every eval
mode and ``eps2`` zero and positive:

* accelerations are bitwise the oracle's wherever the walk expands no
  bucket leaf, and within 1e-12 relative where it does (a scalar loop
  replaced the einsum);
* the charged counters equal the oracle's field for field, except for
  dual evaluations with far pairs: the remote downsweep now charges its
  per-level ``for_each`` rounds, as the local dual force always did —
  exactly ``levels - 1`` launches and ``nodes - 1`` loop iterations of
  the target tree more.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.core.config import SimulationConfig
from repro.distributed.let import remote_accelerations
from repro.geometry.aabb import compute_bounding_box
from repro.machine.counters import Counters
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.gravity import GravityParams
from repro.stdpar.context import ExecutionContext
from repro.traversal.driver import hilbert_body_order
from repro.traversal.dual import (
    build_dual_lists,
    build_target_tree,
    evaluate_dual,
)
from repro.traversal.engine import (
    InteractionLists,
    TreeView,
    account_grouped_force,
    build_interaction_lists,
    evaluate_interaction_lists,
)
from repro.traversal.groups import BodyGroups, make_groups
from repro.types import INDEX

THETA = 0.5


@dataclasses.dataclass
class _RemoteEvalStats:
    lists: InteractionLists
    pairs: int
    quad_terms: int
    quad_far: int = 0
    flat_launches: int = 0
    near_pairs_naive: int = 0
    near_pairs_evaluated: int = 0


def _reference_remote_accelerations(
    view: TreeView, groups: BodyGroups, x_sorted, theta, *, G, eps2,
    eval_mode, x_src, m_src, traversal, cc_mac, expansion_order,
):
    """The remote evaluation as it stood before it went through the
    driver: its own list build and evaluate call, and a vectorized
    bucket-leaf expansion against the source arrays."""
    foreign = np.full(x_sorted.shape[0], -2, dtype=INDEX)
    quad_far = 0
    if traversal == "dual":
        lists = build_dual_lists(view, build_target_tree(groups), theta,
                                 cc_mac=cc_mac)
        acc, stats = evaluate_dual(
            view, lists, groups, x_sorted, G=G, eps2=eps2, mode=eval_mode,
            body_ids=foreign, expansion_order=expansion_order,
        )
        quad_far = stats["quad_far"]
    else:
        lists = build_interaction_lists(view, groups, theta)
        acc, stats = evaluate_interaction_lists(
            view, lists, groups, x_sorted, G=G, eps2=eps2, mode=eval_mode,
            body_ids=foreign,
        )
    pairs = stats["pairs"]
    go = groups.offsets
    for g, node in zip(lists.exact_groups, lists.exact_nodes):
        bodies = view.exact_bodies(int(node))
        if not bodies:
            continue
        xb = x_src[bodies]
        mb = m_src[bodies]
        rows = slice(int(go[g]), int(go[g + 1]))
        d = xb[None, :, :] - x_sorted[rows][:, None, :]
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        with np.errstate(divide="ignore"):
            w = np.where(r2 > 0.0, G * mb * r2 ** -1.5, 0.0)
        acc[rows] += np.einsum("ij,ijk->ik", w, d)
        pairs += w.size
    return acc, _RemoteEvalStats(
        lists, pairs, stats["quad_terms"], quad_far=quad_far,
        flat_launches=stats.get("flat_launches", 0),
        near_pairs_naive=stats.get("near_pairs_naive", 0),
        near_pairs_evaluated=stats.get("near_pairs_evaluated", 0),
    )


def _reference_halo_force(view, x_src, m_src, x_dst, cfg, counters,
                          launches):
    """The runtime's old per-halo block: groups, remote evaluation and
    its hand-copied accounting call."""
    gs = cfg.group_size if cfg.traversal in ("grouped", "dual") else 1
    groups = make_groups(x_dst, gs)
    acc, st = _reference_remote_accelerations(
        view, groups, x_dst, cfg.theta,
        G=cfg.gravity.G, eps2=cfg.gravity.eps2, eval_mode=cfg.eval_mode,
        x_src=x_src, m_src=m_src,
        traversal="dual" if cfg.traversal == "dual" else "grouped",
        cc_mac=cfg.cc_mac, expansion_order=cfg.expansion_order,
    )
    account_grouped_force(
        counters, st.lists, groups,
        n_bodies=x_dst.shape[0], dim=x_dst.shape[1],
        pairs=st.pairs, quad_terms=st.quad_terms, quad_far=st.quad_far,
        expansion_order=cfg.expansion_order,
        visit_bytes=view.visit_bytes, built=True,
        flops_per_visit=view.flops_per_visit, launches=launches,
        flat_launches=st.flat_launches,
        near_pairs_naive=st.near_pairs_naive,
        near_pairs_evaluated=st.near_pairs_evaluated,
    )
    return acc, st


# ----------------------------------------------------------------------
def _source(tree: str, order: int):
    """A source rank: its bodies and tree view.  The octree source holds
    coincident quadruples on a 3-bit grid, so its leaves are buckets."""
    rng = np.random.default_rng(11)
    if tree == "octree":
        x = np.repeat(rng.random((24, 3)), 4, axis=0)
        m = rng.random(x.shape[0]) + 0.1
        pool = build_octree_vectorized(x, bits=3)
        compute_multipoles_vectorized(pool, x, m, None, order=order)
        return x, m, octree_tree_view(pool)
    x = rng.random((96, 3))
    m = rng.random(96) + 0.1
    return x, m, bvh_tree_view(build_bvh(x, m, order=order))


def _targets():
    """A destination rank overlapping the source cloud and reaching well
    past it (so the dual walk accepts far pairs), in curve order."""
    rng = np.random.default_rng(5)
    x = rng.random((80, 3)) * 2.5 - 0.2
    return x[hilbert_body_order(x, compute_bounding_box(x))]


def _config(traversal, order, group_size, eval_mode, softening):
    return SimulationConfig(
        algorithm="octree", traversal=traversal, multipole_order=order,
        group_size=group_size, eval_mode=eval_mode, theta=THETA,
        gravity=GravityParams(softening=softening),
    )


def _new(view, x_src, m_src, x_dst, cfg, launches):
    ctx = ExecutionContext()
    with ctx.step("force"):
        acc = remote_accelerations(view, x_src, m_src, x_dst, cfg, ctx,
                                   launches=launches)
    return acc, ctx.step_counters.step("force")


_CASES = [
    (traversal, gs)
    for traversal in ("grouped", "dual") for gs in (1, 7, 32)
] + [("lockstep", 32)]  # lockstep halos are one-body groups


@pytest.mark.parametrize("softening", [0.0, 0.05])
@pytest.mark.parametrize("eval_mode", ["auto", "tile", "gemm", "flat"])
@pytest.mark.parametrize("traversal,group_size", _CASES)
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("tree", ["octree", "bvh"])
def test_matches_oracle(tree, order, traversal, group_size, eval_mode,
                        softening):
    x_src, m_src, view = _source(tree, order)
    x_dst = _targets()
    cfg = _config(traversal, order, group_size, eval_mode, softening)
    launches = 2.0 if group_size != 7 else 0.0  # first and batched-in halos

    ref_counters = Counters()
    ref, st = _reference_halo_force(view, x_src, m_src, x_dst, cfg,
                                    ref_counters, launches)
    acc, counters = _new(view, x_src, m_src, x_dst, cfg, launches)

    if st.lists.exact_groups.size:
        scale = np.abs(ref).max()
        assert np.abs(acc - ref).max() <= 1e-12 * scale
    else:
        assert acc.tobytes() == ref.tobytes()

    expected = ref_counters.as_dict()
    if st.lists.n_far:
        layout = st.lists.tt.layout
        expected["kernel_launches"] += layout.n_levels - 1
        expected["loop_iterations"] += layout.n_nodes - 1
    assert counters.as_dict() == expected


def test_matrix_exercises_buckets_and_far_pairs():
    """The oracle matrix is not vacuous: octree halos expand remote
    bucket leaves at every group size, and dual halos retire far pairs
    (too few 32-body groups for that at this size)."""
    x_src, m_src, view = _source("octree", 1)
    n_far = {}
    for gs in (1, 7, 32):
        groups = make_groups(_targets(), gs)
        assert build_interaction_lists(view, groups, THETA).exact_groups.size
        dual = build_dual_lists(view, build_target_tree(groups), THETA,
                                cc_mac=1.5)
        assert dual.exact_groups.size
        n_far[gs] = dual.n_far
    assert n_far[1] > 0 and n_far[7] > 0


def test_empty_targets():
    x_src, m_src, view = _source("bvh", 1)
    cfg = _config("grouped", 1, 32, "auto", 0.0)
    acc = remote_accelerations(view, x_src, m_src, np.zeros((0, 3)), cfg)
    assert acc.shape == (0, 3)
