"""CALCULATEMULTIPOLES: parallel tree reduction (paper Fig. 2).

Monopole moments (mass, mass-weighted centre of mass, body count) are
reduced leaf-to-root.  The paper's wait-free algorithm launches one
thread per node; non-leaf threads exit immediately, leaf threads
accumulate their moments onto the parent with relaxed ``fetch_add`` and
signal with an acquire+release arrival counter — the *last* arriver
recurses to the parent.  There are no critical sections (wait-free),
but the synchronizing atomics are vectorization-unsafe, so the kernel
requires ``par``.

Both forms below produce identical results; the scalar form is the
faithful one, the vectorized form processes levels bottom-up with the
concurrent algorithm's operation counts charged analytically.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.octree.layout import OctreePool
from repro.physics.multipole import check_multipole_order
from repro.stdpar.atomics import AtomicArray, acq_rel, relaxed
from repro.stdpar.context import ExecutionContext
from repro.stdpar.kernel import kernel_from_functions
from repro.stdpar.policy import par
from repro.stdpar.scheduler import FetchAdd, Op


def _leaf_moment(pool: OctreePool, x: np.ndarray, m: np.ndarray, node: int):
    """(weighted-position, mass, count) of a leaf's bodies (0 if empty)."""
    bodies = pool.leaf_bodies(node)
    if not bodies:
        return np.zeros(pool.dim), 0.0, 0
    idx = np.asarray(bodies)
    return (m[idx, None] * x[idx]).sum(axis=0), float(m[idx].sum()), len(bodies)


def _reduce_thread(
    pool: OctreePool,
    atoms: dict[str, AtomicArray],
    x: np.ndarray,
    m: np.ndarray,
    node: int,
) -> Generator[Op, Any, None]:
    """One virtual thread of the Fig. 2 reduction."""
    if pool.child[node] >= 0:
        return  # internal node: exit immediately
    com_w, mass, cnt = _leaf_moment(pool, x, m, node)
    # Store the leaf's own moments (each leaf is owned by exactly one
    # thread, so plain stores are race-free); the force kernel reads
    # them when it reaches the leaf.
    pool.com_w[node] = com_w
    pool.mass[node] = mass
    pool.count[node] = cnt
    if pool.quad is not None and cnt > 1:
        from repro.physics.multipole import quadrupole_of_points

        idx = np.asarray(pool.leaf_bodies(node))
        pool.quad[node] = quadrupole_of_points(x[idx], m[idx], com_w / mass)
    if node == 0:
        return  # single-node tree: the root is itself the leaf
    cur = node
    while cur != 0:
        parent = int(pool.parent_of(cur))
        for k in range(pool.dim):
            yield FetchAdd(atoms["com_w"], (parent, k), com_w[k], relaxed)
        yield FetchAdd(atoms["mass"], parent, mass, relaxed)
        yield FetchAdd(atoms["count"], parent, cnt, relaxed)
        old = yield FetchAdd(atoms["arrivals"], parent, 1, acq_rel)
        if int(old) + 1 < pool.nchild:
            return  # a sibling will finish this parent
        # Last arriver: all children's moments are visible (the
        # acquire+release counter orders them); recurse to the parent.
        com_w = pool.com_w[parent].copy()
        mass = float(pool.mass[parent])
        cnt = int(pool.count[parent])
        if pool.quad is not None:
            # Order 2: the last arriver owns the parent now — combine
            # the children's (final) quadrupoles about the parent com.
            _finish_parent_quadrupole(pool, parent, com_w, mass)
        cur = parent


def _exact_single_body_coms(pool: OctreePool, x: np.ndarray) -> None:
    """Make single-body leaf centres of mass bitwise equal to the body
    position.

    ``(m * x) / m`` is not guaranteed to round-trip in floating point;
    a one-ulp offset turns the body's visit to its *own* leaf into a
    near-zero-distance interaction, which diverges when softening is
    zero (the leaf monopole is only "the exact pairwise interaction" if
    the com is exact).
    """
    leaves = pool.body_leaves()
    if not leaves.size:
        return
    single = leaves[pool.count[leaves] == 1]
    heads = (-pool.child[single] - 3).astype(np.int64)
    pool.com[single] = x[heads]


def _finish_parent_quadrupole(
    pool: OctreePool, parent: int, com_w: np.ndarray, mass: float
) -> None:
    """Combine the children's quadrupoles about the parent com (called
    exactly once per internal node, by its last-arriving thread)."""
    from repro.physics.multipole import combine_quadrupoles

    com_parent = com_w / mass if mass > 0.0 else np.zeros(pool.dim)
    first = int(pool.child[parent])
    ch = np.arange(first, first + pool.nchild)
    with np.errstate(invalid="ignore", divide="ignore"):
        com_ch = np.where(
            pool.mass[ch, None] > 0.0,
            pool.com_w[ch] / np.maximum(pool.mass[ch, None], 1e-300),
            0.0,
        )
    pool.quad[parent] = combine_quadrupoles(
        pool.quad[ch][None], pool.mass[ch][None], com_ch[None], com_parent[None]
    )[0]


def compute_multipoles_concurrent(
    pool: OctreePool,
    x: np.ndarray,
    m: np.ndarray,
    ctx: ExecutionContext | None = None,
    *,
    order: int = 1,
) -> None:
    """Faithful wait-free reduction on the virtual-thread scheduler."""
    check_multipole_order(order, pool.dim)
    if ctx is None:
        ctx = ExecutionContext(backend="reference")
    n = pool.n_nodes
    pool.com_w[:n] = 0.0
    pool.mass[:n] = 0.0
    pool.count[:n] = 0
    pool.arrivals[:n] = 0
    pool.quad = np.zeros((n, pool.dim, pool.dim)) if order == 2 else None
    atoms = {
        "com_w": AtomicArray(pool.com_w, ctx.counters),
        "mass": AtomicArray(pool.mass, ctx.counters),
        "count": AtomicArray(pool.count, ctx.counters),
        "arrivals": AtomicArray(pool.arrivals, ctx.counters),
    }
    kernel = kernel_from_functions(
        "octree_multipoles",
        scalar=lambda i: _reduce_thread(pool, atoms, x, m, int(i)),
        uses_atomics=True,
    )
    from repro.stdpar.algorithms import for_each

    for_each(par, np.arange(n), kernel, ctx)
    pool.finalize_com()
    _exact_single_body_coms(pool, x)


def _leaf_quadrupoles(pool: OctreePool, x: np.ndarray, m: np.ndarray) -> None:
    """Quadrupoles of leaves: zero for empty/single-body leaves (a point
    has no quadrupole about itself); exact sums for bucket chains."""
    from repro.physics.multipole import quadrupole_of_points

    assert pool.quad is not None
    for leaf in pool.body_leaves():
        bodies = pool.leaf_bodies(int(leaf))
        if len(bodies) > 1:
            idx = np.asarray(bodies)
            pool.quad[leaf] = quadrupole_of_points(x[idx], m[idx], pool.com[leaf])


def _reduce_quadrupoles_vectorized(pool: OctreePool) -> None:
    """Bottom-up parallel-axis combination over final centres of mass."""
    from repro.physics.multipole import combine_quadrupoles

    nch = pool.nchild
    internal = pool.internal_nodes()
    if not internal.size:
        return
    depths = pool.depth[internal]
    for d in range(int(depths.max(initial=0)), -1, -1):
        nodes_d = internal[depths == d]
        if not nodes_d.size:
            continue
        blocks = pool.child[nodes_d][:, None] + np.arange(nch)
        pool.quad[nodes_d] = combine_quadrupoles(
            pool.quad[blocks], pool.mass[blocks], pool.com[blocks],
            pool.com[nodes_d],
        )


def compute_multipoles_vectorized(
    pool: OctreePool,
    x: np.ndarray,
    m: np.ndarray,
    ctx: ExecutionContext | None = None,
    *,
    order: int = 1,
    account: str = "waitfree",
) -> None:
    """Level-by-level bottom-up reduction (identical results).

    *account* selects whose operation counts are charged: ``"waitfree"``
    for the paper's Fig. 2 atomic reduction (the Concurrent Octree's
    CALCULATEMULTIPOLES), ``"levelwise"`` for an atomics-free
    level-synchronous reduction (the two-stage/Thüring-style pipeline,
    analogous to the BVH's fused pass).
    """
    check_multipole_order(order, pool.dim)
    if account not in ("waitfree", "levelwise"):
        raise ValueError(f"unknown accounting mode {account!r}")
    n = pool.n_nodes
    nch = pool.nchild
    pool.com_w[:n] = 0.0
    pool.mass[:n] = 0.0
    pool.count[:n] = 0

    # Leaf moments in one scatter pass; bucket chains iterate (their
    # length is 1 except for deepest-cell collisions).
    leaves = pool.body_leaves()
    if leaves.size:
        cur = (-pool.child[leaves] - 3).astype(np.int64)  # head bodies
        nodes = leaves
        while cur.size:
            np.add.at(pool.com_w, nodes, m[cur, None] * x[cur])
            np.add.at(pool.mass, nodes, m[cur])
            np.add.at(pool.count, nodes, 1)
            nxt = pool.next_body[cur]
            keep = nxt >= 0
            cur = nxt[keep]
            nodes = nodes[keep]

    internal = pool.internal_nodes()
    if internal.size:
        depths = pool.depth[internal]
        for d in range(int(depths.max(initial=0)), -1, -1):
            nodes_d = internal[depths == d]
            if not nodes_d.size:
                continue
            blocks = pool.child[nodes_d][:, None] + np.arange(nch)
            pool.com_w[nodes_d] = pool.com_w[blocks].sum(axis=1)
            pool.mass[nodes_d] = pool.mass[blocks].sum(axis=1)
            pool.count[nodes_d] = pool.count[blocks].sum(axis=1)

    pool.finalize_com()
    _exact_single_body_coms(pool, x)
    if order == 2:
        pool.quad = np.zeros((pool.n_nodes, pool.dim, pool.dim))
        _leaf_quadrupoles(pool, x, m)
        _reduce_quadrupoles_vectorized(pool)
    else:
        pool.quad = None
    if ctx is not None:
        if account == "waitfree":
            _account_reduction(pool, ctx, order)
        else:
            _account_levelwise_reduction(pool, ctx, order)


def _account_reduction(pool: OctreePool, ctx: ExecutionContext,
                       order: int = 1) -> None:
    """Charge the wait-free algorithm's atomics: every non-root node
    performs (dim + 2) relaxed fetch_adds plus one acquire+release
    arrival increment on its parent; siblings contend on the parent's
    cache line about half the time."""
    updates = float(pool.n_nodes - 1)
    # Monopole: dim com components + mass + count + arrival.  Order 2
    # additionally reduces 6 unique tensor components per node.
    per_update = pool.dim + 3.0 + (6.0 if order == 2 else 0.0)
    word = 8.0
    # The only serialized dependency chain is the last-arriver path from
    # the deepest leaf to the root (tree depth hops); sibling updates to
    # distinct parents proceed in parallel.
    depth_max = float(pool.depth[: pool.n_nodes].max(initial=0))
    ctx.counters.add(
        atomic_ops=updates * per_update,
        sync_atomic_ops=updates,  # one acq_rel arrival increment each
        contended_atomic_ops=depth_max * pool.nchild,
        bytes_irregular=updates * per_update * word,
        bytes_read=updates * per_update * word,
        bytes_written=updates * per_update * word,
        loop_iterations=float(pool.n_nodes),
        kernel_launches=1.0,
    )


def _account_levelwise_reduction(pool: OctreePool, ctx: ExecutionContext,
                                 order: int = 1) -> None:
    """Atomics-free level-synchronous reduction: every node is written
    once and its children read once per level pass, one kernel launch
    per level (the BVH-style alternative used by the two-stage
    pipeline)."""
    nn = float(pool.n_nodes)
    node_bytes = (pool.dim + 2.0) * 8.0 + (48.0 if order == 2 else 0.0)
    levels = float(pool.depth[: pool.n_nodes].max(initial=0)) + 1.0
    ctx.counters.add(
        flops=(4.0 * pool.dim + (30.0 if order == 2 else 0.0)) * nn,
        bytes_read=2.0 * node_bytes * nn,
        bytes_written=node_bytes * nn,
        loop_iterations=nn,
        kernel_launches=levels,
    )
