"""Stackless DFS support (paper Fig. 3) and structural canonicalization.

The bump allocator hands out children at strictly larger offsets than
their parents, so a depth-first traversal needs no stack: a *forward
step* descends to the first child; a *backward step* moves to the next
sibling, or — from the last sibling — to the parent's successor.  The
composition of backward steps from any node is a static function of the
tree, its *escape index*; we precompute it level by level (children
derive theirs from their parent's), which is semantically identical to
deriving it from the offset ordering on the fly.
"""

from __future__ import annotations

import numpy as np

from repro.octree.layout import OctreePool
from repro.types import INDEX

#: Escape value meaning "traversal finished".
DONE = -1


def compute_escape_indices(pool: OctreePool) -> np.ndarray:
    """Next-node-in-DFS-after-skipping-subtree, for every node."""
    n = pool.n_nodes
    nch = pool.nchild
    escape = np.full(n, DONE, dtype=INDEX)
    internal = pool.internal_nodes()
    if internal.size:
        depths = pool.depth[internal]
        for d in range(0, int(depths.max(initial=0)) + 1):
            nodes_d = internal[depths == d]
            if not nodes_d.size:
                continue
            first = pool.child[nodes_d]
            # siblings chain to each other ...
            for i in range(nch - 1):
                escape[first + i] = first + i + 1
            # ... and the last sibling escapes to the parent's escape.
            escape[first + nch - 1] = escape[nodes_d]
    pool.escape = escape
    return escape


def canonical_structure(pool: OctreePool):
    """A nested-tuple canonical form of the tree, independent of node
    allocation order — equal for the concurrent and vectorized builders.

    Leaves map to ``('leaf', frozenset(bodies))``; internal nodes to a
    tuple of their children's canonical forms in Morton child order.
    """

    def rec(node: int):
        c = int(pool.child[node])
        if c >= 0:
            return tuple(rec(c + i) for i in range(pool.nchild))
        return ("leaf", frozenset(pool.leaf_bodies(node)))

    return rec(0)


def validate_tree(pool: OctreePool, n_bodies: int) -> None:
    """Structural invariants, raising AssertionError on violation:

    * every body appears in exactly one leaf;
    * children always have larger offsets than parents (Fig. 3's
      stackless-traversal precondition);
    * child depths are parent depth + 1;
    * no node is left in the transient Locked state.
    """
    seen: list[int] = []
    n = pool.n_nodes
    child = pool.child[:n]
    assert not np.any(child == -2), "node left LOCKED after build"
    internal = pool.internal_nodes()
    if internal.size:
        first = child[internal]
        assert np.all(first > internal), "child offset not larger than parent"
        for i in range(pool.nchild):
            assert np.all(pool.depth[first + i] == pool.depth[internal] + 1)
            parents = pool.parent_of(first + i)
            assert np.all(parents == internal), "parent offsets inconsistent"
    for leaf in pool.leaf_nodes():
        seen.extend(pool.leaf_bodies(int(leaf)))
    assert sorted(seen) == list(range(n_bodies)), "bodies lost or duplicated"
