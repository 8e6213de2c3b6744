"""Per-node drift bounds and the cached-list validity gate.

With fixed masses and fixed leaf membership (both invariants of a
refit), a node's centre of mass is a convex combination of its bodies'
positions, so it moves by at most the maximum displacement of any body
below the node.  The same bound caps how far any body below the node
can be from where the list-building walk assumed it to be.  Tracking
that per-node maximum therefore lets cached grouped interaction lists
be revalidated with the *observed* drift instead of a worst-case
inflation.

Lists are built with an opening-radius margin ``m`` (the MAC accepts a
node only when ``size < theta * (dmin - m)``).  Re-using a list at
drifted positions stays a provable superset of the fresh-list MAC as
long as, for every approx entry ``(g, v)``::

    group_drift[g] + node_drift[v] * (1 + size_factor) <= m

where ``size_factor`` accounts for the node size term: an octree cell's
side never changes (``size_factor = 0``), while a refit BVH node's box
is refreshed and its longest side can grow by up to twice the node's
drift, which against the MAC threshold costs ``2 / theta``
(``size_factor = 2 / theta``).  Displacements are measured against the
positions the list was *built* at — not the epoch start — so a body
that wanders off and returns does not poison the gate.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.layout import BVHLayout
from repro.octree.layout import _BODY_BASE, OctreePool
from repro.types import FLOAT


def displacement(x: np.ndarray, x_ref: np.ndarray) -> np.ndarray:
    """Per-body Euclidean displacement between two snapshots."""
    d = np.asarray(x, dtype=FLOAT) - np.asarray(x_ref, dtype=FLOAT)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def bvh_node_drift(layout: BVHLayout, disp_sorted: np.ndarray) -> np.ndarray:
    """Max body displacement below each BVH node (leaf-order input).

    The same fused bottom-up level sweep as the refit itself — padding
    leaves hold zero, each coarser node takes the pairwise max.
    """
    nn = layout.n_nodes
    nd = np.zeros(nn, dtype=FLOAT)
    n = disp_sorted.shape[0]
    fl = layout.first_leaf
    nd[fl : fl + n] = disp_sorted
    for level in range(layout.n_levels - 2, -1, -1):
        sl = layout.level_slice(level)
        cl = layout.level_slice(level + 1)
        k = sl.stop - sl.start
        nd[sl] = nd[cl].reshape(k, 2).max(axis=1)
    return nd


def octree_node_drift(pool: OctreePool, disp: np.ndarray) -> np.ndarray:
    """Max body displacement below each octree node (body-id input)."""
    nn = pool.n_nodes
    nd = np.zeros(nn, dtype=FLOAT)
    leaves = pool.body_leaves()
    if leaves.size:
        # Scatter each leaf's bucket chain (usually length 1).
        nodes = leaves
        bodies = -pool.child[leaves] - _BODY_BASE
        while bodies.size:
            np.maximum.at(nd, nodes, disp[bodies])
            nxt = pool.next_body[bodies]
            alive = nxt >= 0
            nodes, bodies = nodes[alive], nxt[alive]
    internal = pool.internal_nodes()
    if internal.size:
        depth = pool.depth[:nn]
        lane = np.arange(pool.nchild)
        for d in range(int(depth[internal].max(initial=0)), -1, -1):
            level = internal[depth[internal] == d]
            if level.size:
                ch = pool.child[level][:, None] + lane
                nd[level] = np.maximum(nd[level], nd[ch].max(axis=1))
    return nd


def group_drift(offsets: np.ndarray, disp_rows: np.ndarray) -> np.ndarray:
    """Max displacement per group (CSR offsets over group-row order)."""
    starts = offsets[:-1]
    ng = starts.shape[0]
    out = np.zeros(ng, dtype=FLOAT)
    if disp_rows.shape[0] == 0 or ng == 0:
        return out
    nonempty = offsets[1:] > starts
    if nonempty.any():
        # reduceat yields garbage for empty segments; mask them out.
        red = np.maximum.reduceat(
            disp_rows, np.minimum(starts, disp_rows.shape[0] - 1)
        )
        out[nonempty] = red[nonempty]
    return out


def lists_valid(
    lists,
    grp_drift: np.ndarray,
    node_drift: np.ndarray,
    *,
    size_factor: float,
) -> bool:
    """Drift-bounded gate: may the cached lists be reused as-is?

    Checks every *approx* entry against the list's build margin (exact
    entries enumerate real bodies, whose contributions are evaluated at
    current positions regardless of drift).  A dual walk's far pairs
    stay valid while the margin absorbs (a) the source's centre-of-mass
    motion and size growth (``size_factor``, as for the entries) and
    (b) the target side: bodies drifting under the cached target box
    both shrink ``dmin`` and effectively grow the box by twice the
    drift, which costs ``2 / (theta * cc_mac)`` against the cell-cell
    threshold.  Target drift is the group drift's max over each
    target-tree subtree, the BVH sweep over the target tree's layout.
    """
    margin = float(lists.mac_margin)
    approx = lists.approx
    if approx.any():
        entry_group = np.repeat(
            np.arange(lists.offsets.shape[0] - 1), np.diff(lists.offsets)
        )
        g = entry_group[approx]
        v = lists.nodes[approx]
        slack = grp_drift[g] + node_drift[v] * (1.0 + size_factor)
        if not np.all(slack <= margin):
            return False
    if lists.n_far == 0:
        return True
    tdrift = bvh_node_drift(lists.tt.layout, grp_drift)
    t_factor = 1.0 + 2.0 / (lists.theta * lists.cc_mac)
    slack = (tdrift[lists.far_t] * t_factor
             + node_drift[lists.far_s] * (1.0 + size_factor))
    return bool(np.all(slack <= margin))
