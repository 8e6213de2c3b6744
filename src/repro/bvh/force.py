"""CALCULATEFORCE over the Hilbert BVH (paper Section IV-B, step 3).

Identical in spirit to the octree traversal with two differences the
paper calls out: the balanced skip list allows multi-level jumps (our
precomputed escape indices), and the acceptance criterion uses the
node's *bounding-box* extent — BVH boxes may be elongated and overlap,
so for the same distance threshold more nodes are opened and the
accuracy differs from the octree's.

The walk is the tree-independent lockstep kernel of
:mod:`repro.traversal.lockstep`, run on :func:`bvh_tree_view`.  It uses
no atomics, so it runs under ``par_unseq``; the bodies walk in Hilbert
order (the view's ``body_order``), which measures warp divergence the
way a SIMT GPU would experience it — low, because curve-adjacent bodies
traverse nearly identical paths.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.build import BVH
from repro.bvh.layout import bvh_dfs_ranks
from repro.physics.gravity import GravityParams
from repro.traversal.engine import (
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

#: Flops per node visit of the BVH walk (box-extent MAC + step).
_FLOPS_PER_VISIT = 10.0


#: Bytes per node visit: bbox (2 * dim * 8) + com (dim * 8) + mass (8);
#: escape indices are implicit (computed from the node index).
def _visit_bytes(dim: int) -> float:
    return (3.0 * dim + 1.0) * 8.0


def mac_size2(bvh: BVH) -> np.ndarray:
    """Squared node extent entering the MAC; +inf (never passes) for a
    node of coincident bodies, whose weighted centre of mass sits a
    rounding residue away from its members.  A one-body node keeps its
    zero extent: its centre is the body bitwise (``_finalize_coms``)."""
    size2 = bvh.node_size2()
    size2[(size2 == 0.0) & (bvh.count > 1)] = np.inf
    return size2


def bvh_accelerations(
    bvh: BVH,
    params: GravityParams = GravityParams(),
    *,
    theta: float = 0.5,
    ctx=None,
    simt_width: int = 32,
) -> np.ndarray:
    """Accelerations for all bodies, returned in the *caller's* body
    order (the Hilbert permutation is internal to the BVH)."""
    x = np.empty_like(bvh.x_sorted)
    x[bvh.perm] = bvh.x_sorted
    acc, _ = lockstep_accelerations(
        bvh_tree_view(bvh), x, None, GravityKernel(params), theta=theta,
        ctx=ctx, simt_width=simt_width)
    return acc


# ----------------------------------------------------------------------
# Traversal-engine view (grouped / dual traversal, LET selection).
# ----------------------------------------------------------------------

def bvh_tree_view(bvh: BVH) -> TreeView:
    """Flat traversal-engine view of the BVH.

    The BVH's leaf order *is* the Hilbert order, so it fixes the body
    order the force driver groups in: contiguous groups of sorted
    bodies are leaf-aligned by construction.  Leaves hold single
    bodies, so there are no bucket leaves.
    """
    layout = bvh.layout
    nn = layout.n_nodes
    first_leaf = layout.first_leaf
    nodes = np.arange(nn, dtype=INDEX)
    leaf = nodes >= first_leaf
    klass = np.full(nn, KLASS_INTERNAL, dtype=np.int8)
    klass[leaf] = KLASS_POINT
    klass[bvh.count == 0] = KLASS_SKIP  # padding leaves / empty subtrees
    point_body = np.full(nn, -1, dtype=INDEX)
    occupied = leaf & (bvh.count > 0)
    point_body[occupied] = nodes[occupied] - first_leaf  # sorted row id
    dim = bvh.x_sorted.shape[1]
    return TreeView(
        com=bvh.com,
        mass=bvh.mass,
        size2=mac_size2(bvh),
        first_child=2 * nodes + 1,
        branch=2,
        klass=klass,
        point_body=point_body,
        dfs_rank=bvh_dfs_ranks(layout.n_leaves),
        escape=bvh.escape,
        quad=bvh.quad,
        visit_bytes=_visit_bytes(dim),
        flops_per_visit=_FLOPS_PER_VISIT,
        body_order=bvh.perm,
    )
