"""CALCULATEFORCE over the octree (paper Fig. 3) and its TreeView.

For every body, the tree is walked from the root in DFS order.  An
internal node whose cell size ``s`` and distance-to-centre-of-mass ``d``
satisfy the multipole acceptance criterion ``s < theta * d`` is
*accepted*: its monopole approximates all bodies beneath it and its
subtree is skipped.  Leaf nodes interact exactly (a single-body leaf's
centre of mass *is* the body, so the monopole term is the exact
pairwise interaction; bucket leaves are expanded body by body).

The walk itself is the tree-independent lockstep kernel of
:mod:`repro.traversal.lockstep`, run on :func:`octree_tree_view`; this
module supplies the octree's view (cell-side MAC extent, escape
pointers, bucket leaves) and its accounting constants.
"""

from __future__ import annotations

import numpy as np

from repro.octree.layout import _BODY_BASE, OctreePool
from repro.octree.traversal import compute_escape_indices
from repro.physics.gravity import GravityParams
from repro.traversal.engine import (
    KLASS_EXACT,
    KLASS_INTERNAL,
    KLASS_POINT,
    KLASS_SKIP,
    TreeView,
    # Re-exported: perfbench's span tests check that from-import
    # bindings of the list builder in the tree modules are swapped.
    build_interaction_lists,  # noqa: F401
)
from repro.traversal.lockstep import GravityKernel, lockstep_accelerations
from repro.types import INDEX

#: Flops per node visit of the octree walk (cell-side MAC + step).
_FLOPS_PER_VISIT = 8.0


def _visit_bytes(dim: int) -> float:
    """Bytes touched per node visit: child word (8) + centre of mass
    (dim * 8) + mass (8) + depth (2) + escape (8)."""
    return 50.0 if dim == 3 else 42.0


def _prepare(pool: OctreePool) -> None:
    if pool.com is None:
        raise ValueError("multipoles must be computed before forces")
    if pool.escape is None:
        compute_escape_indices(pool)


def octree_accelerations(
    pool: OctreePool,
    x: np.ndarray,
    m: np.ndarray,
    params: GravityParams = GravityParams(),
    *,
    theta: float = 0.5,
    ctx=None,
    simt_width: int = 32,
) -> np.ndarray:
    """Barnes-Hut accelerations for all bodies (lockstep batch walk)."""
    acc, _ = lockstep_accelerations(
        octree_tree_view(pool), x, m, GravityKernel(params), theta=theta,
        ctx=ctx, simt_width=simt_width)
    return acc


# ----------------------------------------------------------------------
# Traversal-engine view (grouped / dual traversal, LET selection).
# ----------------------------------------------------------------------

def _octree_dfs_ranks(pool: OctreePool) -> np.ndarray:
    """DFS-preorder rank of every pool node (level-vectorized)."""
    nn = pool.n_nodes
    child = pool.child[:nn]
    depth = pool.depth[:nn].astype(np.int64)
    nch = pool.nchild
    internal = np.nonzero(child >= 0)[0]
    max_depth = int(depth[internal].max(initial=0))
    lane = np.arange(nch, dtype=INDEX)
    # Subtree sizes bottom-up, then child ranks top-down: a child's rank
    # is its parent's, plus one, plus its earlier siblings' subtrees.
    size = np.ones(nn, dtype=np.int64)
    for d in range(max_depth, -1, -1):
        nodes = internal[depth[internal] == d]
        if nodes.size:
            ch = child[nodes][:, None] + lane
            size[nodes] = 1 + size[ch].sum(axis=1)
    rank = np.zeros(nn, dtype=np.int64)
    for d in range(max_depth + 1):
        nodes = internal[depth[internal] == d]
        if nodes.size:
            ch = child[nodes][:, None] + lane
            sz = size[ch]
            rank[ch] = rank[nodes][:, None] + 1 + np.cumsum(sz, axis=1) - sz
    return rank


def octree_tree_view(pool: OctreePool) -> TreeView:
    """Flat traversal-engine view of the pool (multipoles computed).

    The octree leaves body order to the force driver (a Hilbert sort
    over the root cell); bucket leaves expand through
    :meth:`OctreePool.leaf_bodies`.
    """
    _prepare(pool)
    nn = pool.n_nodes
    child = pool.child[:nn]
    count = pool.count[:nn]
    internal = child >= 0
    leaf = ~internal
    klass = np.full(nn, KLASS_SKIP, dtype=np.int8)  # empty leaves skip
    klass[internal] = KLASS_INTERNAL
    point = leaf & (count == 1)
    klass[point] = KLASS_POINT
    klass[leaf & (count > 1)] = KLASS_EXACT
    point_body = np.full(nn, -1, dtype=INDEX)
    point_body[point] = -child[point] - _BODY_BASE  # decode_body, batched
    return TreeView(
        com=pool.com,
        mass=pool.mass[:nn],
        size2=pool.node_side(pool.depth[:nn]) ** 2,
        first_child=child,
        branch=pool.nchild,
        klass=klass,
        point_body=point_body,
        dfs_rank=_octree_dfs_ranks(pool),
        escape=pool.escape,
        quad=pool.quad,
        visit_bytes=_visit_bytes(pool.dim),
        flops_per_visit=_FLOPS_PER_VISIT,
        exact_bodies=pool.leaf_bodies,
        box=pool.box,
    )
