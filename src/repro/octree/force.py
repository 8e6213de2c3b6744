"""CALCULATEFORCE: stackless depth-first force traversal (paper Fig. 3).

For every body, the tree is walked from the root in DFS order.  An
internal node whose cell size ``s`` and distance-to-centre-of-mass ``d``
satisfy the multipole acceptance criterion ``s < theta * d`` is
*accepted*: its monopole approximates all bodies beneath it and its
subtree is skipped.  Leaf nodes interact exactly (a single-body leaf's
centre of mass *is* the body, so the monopole term is the exact
pairwise interaction; bucket leaves are expanded body by body).

The computation per body is independent and lock-free, so the paper
runs it with ``par_unseq``.  The batch implementation below advances
all bodies' traversal pointers in lockstep with masked numpy ops —
operationally identical to SIMT execution of the C++ kernel — and
measures per-warp divergence exactly, which feeds the cost model's
divergence term.  A per-body scalar walker (used by the tests and the
reference backend) produces bit-identical visit sequences.
"""

from __future__ import annotations

import numpy as np

from repro.octree.layout import _BODY_BASE, OctreePool
from repro.octree.traversal import DONE, compute_escape_indices
from repro.physics.gravity import GravityParams
from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import (
    KLASS_EXACT,
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
    _prepare(pool)
    x = np.asarray(x, dtype=FLOAT)
    n, dim = x.shape
    acc = np.zeros((n, dim), dtype=FLOAT)
    if n == 0 or pool.n_nodes == 0:
        return acc

    nn = pool.n_nodes
    child = pool.child[:nn]
    com = pool.com
    mass = pool.mass[:nn]
    count = pool.count[:nn]
    quad = pool.quad
    escape = pool.escape
    side2 = pool.node_side(pool.depth[:nn]) ** 2
    theta2 = theta * theta
    eps2 = params.eps2
    G = params.G

    ptr = np.zeros(n, dtype=INDEX)           # every body starts at the root
    steps = np.zeros(n, dtype=np.int64)
    interactions = 0
    quad_terms = 0
    bucket_targets: list[np.ndarray] = []
    bucket_nodes: list[np.ndarray] = []

    act = np.arange(n, dtype=INDEX)
    while act.size:
        nd = ptr[act]
        c = child[nd]
        internal = c >= 0
        dvec = com[nd] - x[act]
        r2 = np.einsum("ij,ij->i", dvec, dvec)
        accept = internal & (side2[nd] < theta2 * r2)
        leaf = ~internal
        bucket = leaf & (count[nd] > 1)
        contrib = (accept | leaf) & ~bucket

        if contrib.any():
            r2c = r2[contrib] + eps2
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(r2c > 0.0, G * mass[nd][contrib] * r2c ** -1.5, 0.0)
            # `act` rows are unique, so fancy-index += is race-free here.
            acc[act[contrib]] += w[:, None] * dvec[contrib]
            interactions += int(np.count_nonzero(w))
            if quad is not None:
                # Order-2 term for accepted internal nodes (leaf
                # monopoles are exact; their quadrupole is zero).
                q_rows = accept[contrib]
                if q_rows.any():
                    sel = np.nonzero(contrib)[0][q_rows]
                    acc[act[sel]] += quadrupole_accel(
                        dvec[sel], r2[sel] + eps2, quad[nd[sel]], G
                    )
                    quad_terms += int(q_rows.sum())

        if bucket.any():
            bucket_targets.append(act[bucket].copy())
            bucket_nodes.append(nd[bucket].copy())

        ptr[act] = np.where(accept | leaf, escape[nd], c)
        steps[act] += 1
        act = act[ptr[act] != DONE]

    # Exact expansion of bucket leaves (deepest-cell collisions; rare).
    for targets, nodes in zip(bucket_targets, bucket_nodes):
        for i, node in zip(targets, nodes):
            for b in pool.leaf_bodies(int(node)):
                if b == i:
                    continue
                d = x[b] - x[i]
                r2 = float(d @ d) + eps2
                if r2 > 0.0:
                    acc[i] += G * m[b] * r2**-1.5 * d
                    interactions += 1

    if ctx is not None:
        account_lockstep_force(ctx.counters, steps, interactions, dim=dim,
                               simt_width=simt_width,
                               visit_bytes=_visit_bytes(dim),
                               flops_per_visit=_FLOPS_PER_VISIT,
                               quad_terms=quad_terms)
    return acc


def octree_accelerations_scalar(
    pool: OctreePool,
    x: np.ndarray,
    m: np.ndarray,
    params: GravityParams = GravityParams(),
    *,
    theta: float = 0.5,
) -> np.ndarray:
    """Per-body stackless walker (reference; bit-compatible traversal)."""
    _prepare(pool)
    x = np.asarray(x, dtype=FLOAT)
    n, dim = x.shape
    acc = np.zeros((n, dim), dtype=FLOAT)
    nn = pool.n_nodes
    side2 = pool.node_side(pool.depth[:nn]) ** 2
    theta2 = theta * theta
    eps2 = params.eps2
    for i in range(n):
        node = 0
        while node != DONE:
            c = int(pool.child[node])
            internal = c >= 0
            dvec = pool.com[node] - x[i]
            r2 = float(dvec @ dvec)
            accept = internal and side2[node] < theta2 * r2
            if accept or (not internal and pool.count[node] <= 1):
                r2f = r2 + eps2
                if r2f > 0.0 and pool.mass[node] > 0.0:
                    acc[i] += params.G * pool.mass[node] * r2f**-1.5 * dvec
                    if accept and pool.quad is not None:
                        acc[i] += quadrupole_accel(
                            dvec[None], np.array([r2f]),
                            pool.quad[node][None], params.G,
                        )[0]
            elif not internal:
                for b in pool.leaf_bodies(node):
                    if b == i:
                        continue
                    d = x[b] - x[i]
                    r2b = float(d @ d) + eps2
                    if r2b > 0.0:
                        acc[i] += params.G * m[b] * r2b**-1.5 * d
            node = int(pool.escape[node]) if (accept or not internal) else c
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
        quad=pool.quad,
        visit_bytes=_visit_bytes(pool.dim),
        flops_per_visit=_FLOPS_PER_VISIT,
        exact_bodies=pool.leaf_bodies,
        box=pool.box,
    )
