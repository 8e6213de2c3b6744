"""CALCULATEFORCE over the Hilbert BVH (paper Section IV-B, step 3).

Identical in spirit to the octree traversal with two differences the
paper calls out: the balanced skip list allows multi-level jumps (our
precomputed escape indices), and the acceptance criterion uses the
node's *bounding-box* extent — BVH boxes may be elongated and overlap,
so for the same distance threshold more nodes are opened and the
accuracy differs from the octree's.

The kernel uses no atomics, so it runs under ``par_unseq``; the batch
implementation advances all (Hilbert-sorted) bodies in lockstep, which
both is fast in numpy and measures warp divergence the way a SIMT GPU
would experience it — low, because curve-adjacent bodies traverse
nearly identical paths.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.build import BVH
from repro.bvh.layout import DONE, bvh_dfs_ranks
from repro.physics.gravity import GravityParams
from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import (
    KLASS_INTERNAL,
    KLASS_POINT,
    KLASS_SKIP,
    TreeView,
    account_lockstep_force,
    # Re-exported: perfbench's span tests check that from-import
    # bindings of the list builder in the tree modules are swapped.
    build_interaction_lists,  # noqa: F401
)
from repro.types import FLOAT, INDEX

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
    n = bvh.n_bodies
    dim = bvh.x_sorted.shape[1]
    if n == 0:
        return np.zeros((0, dim), dtype=FLOAT)

    x = bvh.x_sorted
    escape = bvh.escape
    first_leaf = bvh.layout.first_leaf
    com = bvh.com
    mass = bvh.mass
    count = bvh.count
    quad = bvh.quad
    size2 = mac_size2(bvh)
    theta2 = theta * theta
    eps2 = params.eps2
    G = params.G

    acc = np.zeros((n, dim), dtype=FLOAT)
    ptr = np.zeros(n, dtype=INDEX)
    steps = np.zeros(n, dtype=np.int64)
    interactions = 0
    quad_terms = 0

    act = np.arange(n, dtype=INDEX)
    while act.size:
        nd = ptr[act]
        leaf = nd >= first_leaf
        empty = count[nd] == 0
        dvec = com[nd] - x[act]
        r2 = np.einsum("ij,ij->i", dvec, dvec)
        accept = ~leaf & ~empty & (size2[nd] < theta2 * r2)
        contrib = (accept | leaf) & ~empty

        if contrib.any():
            r2c = r2[contrib] + eps2
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(r2c > 0.0, G * mass[nd][contrib] * r2c ** -1.5, 0.0)
            acc[act[contrib]] += w[:, None] * dvec[contrib]
            interactions += int(np.count_nonzero(w))
            if quad is not None:
                q_rows = accept[contrib]
                if q_rows.any():
                    sel = np.nonzero(contrib)[0][q_rows]
                    acc[act[sel]] += quadrupole_accel(
                        dvec[sel], r2[sel] + eps2, quad[nd[sel]], G
                    )
                    quad_terms += int(q_rows.sum())

        skip = accept | leaf | empty
        ptr[act] = np.where(skip, escape[nd], 2 * nd + 1)
        steps[act] += 1
        act = act[ptr[act] != DONE]

    if ctx is not None:
        account_lockstep_force(ctx.counters, steps, interactions, dim=dim,
                               simt_width=simt_width,
                               visit_bytes=_visit_bytes(dim),
                               flops_per_visit=_FLOPS_PER_VISIT,
                               quad_terms=quad_terms)

    out = np.empty_like(acc)
    out[bvh.perm] = acc
    return out


def bvh_accelerations_scalar(
    bvh: BVH,
    params: GravityParams = GravityParams(),
    *,
    theta: float = 0.5,
) -> np.ndarray:
    """Per-body reference walker (bit-compatible with the batch path)."""
    n = bvh.n_bodies
    dim = bvh.x_sorted.shape[1]
    acc = np.zeros((n, dim), dtype=FLOAT)
    if n == 0:
        return acc
    escape = bvh.escape
    first_leaf = bvh.layout.first_leaf
    size2 = mac_size2(bvh)
    theta2 = theta * theta
    eps2 = params.eps2
    for i in range(n):
        node = 0
        while node != DONE:
            leaf = node >= first_leaf
            empty_node = bvh.count[node] == 0
            dvec = bvh.com[node] - bvh.x_sorted[i]
            r2 = float(dvec @ dvec)
            accept = (not leaf) and (not empty_node) and size2[node] < theta2 * r2
            if (accept or leaf) and not empty_node:
                r2f = r2 + eps2
                if r2f > 0.0 and bvh.mass[node] > 0.0:
                    acc[i] += params.G * bvh.mass[node] * r2f**-1.5 * dvec
                    if accept and bvh.quad is not None:
                        acc[i] += quadrupole_accel(
                            dvec[None], np.array([r2f]),
                            bvh.quad[node][None], params.G,
                        )[0]
            node = int(escape[node]) if (accept or leaf or empty_node) else 2 * node + 1
    out = np.empty_like(acc)
    out[bvh.perm] = acc
    return out


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
        quad=bvh.quad,
        visit_bytes=_visit_bytes(dim),
        flops_per_visit=_FLOPS_PER_VISIT,
        body_order=bvh.perm,
    )
