"""Deterministic vectorized octree construction.

The concurrent BUILDTREE (Alg. 4) produces a tree whose *shape* depends
only on body positions: a cell is subdivided iff more than one body lies
in it (up to the maximum depth).  Insertion order changes node indices
but not structure.  This builder exploits that: it sorts full-depth
Morton codes once and materializes the identical tree level by level
with pure numpy — the fast path standing in for concurrent insertion,
with the concurrent algorithm's operation counts derived analytically.
The structural equality of both builders is asserted by the test suite
(see :func:`repro.octree.traversal.canonical_structure`).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import AABB, compute_bounding_box, quantize_to_grid
from repro.geometry.morton import max_bits, morton_encode
from repro.octree.layout import OctreePool, encode_body
from repro.types import INDEX


def _ranges_to_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``[start, start+len)`` ranges into one index array."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX)
    reset = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    return np.arange(total, dtype=INDEX) + reset


def build_octree_vectorized(
    x: np.ndarray,
    *,
    bits: int | None = None,
    box: AABB | None = None,
    ctx=None,
    level_stats: list | None = None,
    account: str = "concurrent",
) -> OctreePool:
    """Build the octree over positions *x*; returns the populated pool.

    Multipoles are not computed here — CALCULATEMULTIPOLES is a separate
    pipeline step (Algorithm 2).

    *level_stats*, if a list, receives one dict per materialized level
    (frontier width and bodies spanned) — used by the two-stage builder
    to attribute stage-1 work.  *account* selects whose operation
    counts are charged to *ctx*: ``"concurrent"`` (the paper's Alg. 4/5)
    or ``"none"`` (caller accounts separately).
    """
    x = np.asarray(x, dtype=float)
    n, dim = x.shape
    bits = max_bits(dim) if bits is None else bits
    if box is None:
        box = compute_bounding_box(x) if n else AABB.empty(dim)

    nch = 1 << dim
    pool = OctreePool(
        dim=dim, bits=bits, box=box,
        capacity=OctreePool.estimate_capacity(n, dim, bits),
        n_bodies=n,
    )
    if n == 0:
        return pool

    grid = quantize_to_grid(x, box, bits)
    codes = morton_encode(grid, bits)
    order = np.argsort(codes, kind="stable").astype(INDEX)
    sorted_codes = codes[order]

    pool.count[0] = n
    nodes = np.array([0], dtype=INDEX)
    starts = np.array([0], dtype=INDEX)
    ends = np.array([n], dtype=INDEX)
    level = 0

    while len(nodes):
        sizes = ends - starts

        # Single-body cells become body leaves at any level.
        one = sizes == 1
        if one.any():
            pool.child[nodes[one]] = encode_body(0) - order[starts[one]]

        if level == bits:
            # Bodies sharing the deepest cell: bucket leaves (chained).
            multi = sizes > 1
            for node, s, e in zip(nodes[multi], starts[multi], ends[multi]):
                chain = order[s:e]
                pool.child[node] = encode_body(int(chain[0]))
                pool.next_body[chain[:-1]] = chain[1:]
            break

        sub = sizes > 1
        if level_stats is not None:
            level_stats.append({
                "level": level,
                "frontier_nodes": int(len(nodes)),
                "subdivided": int(sub.sum()),
                "bodies_spanned": int(sizes[sub].sum()),
            })
        if not sub.any():
            break
        subnodes = nodes[sub]
        substarts = starts[sub]
        sublens = sizes[sub]
        k = len(subnodes)

        # Coincident bodies subdivide down to the maximum depth, which
        # can outgrow the estimate; grow the pool rather than fail.
        pool.reserve(pool.n_nodes + k * nch)
        base = pool.allocate_groups(k, parents=subnodes)
        first_child = base + np.arange(k, dtype=INDEX) * nch
        pool.child[subnodes] = first_child
        pool.depth[base : base + k * nch] = level + 1

        positions = _ranges_to_positions(substarts, sublens)
        shift = np.uint64(dim * (bits - 1 - level))
        dig = ((sorted_codes[positions] >> shift) & np.uint64(nch - 1)).astype(INDEX)
        owner = np.repeat(np.arange(k, dtype=INDEX), sublens)
        cnt = np.bincount(owner * nch + dig, minlength=k * nch).reshape(k, nch)

        child_starts = substarts[:, None] + np.concatenate(
            (np.zeros((k, 1), dtype=INDEX), np.cumsum(cnt, axis=1)[:, :-1]), axis=1
        )
        child_ends = child_starts + cnt
        child_nodes = first_child[:, None] + np.arange(nch, dtype=INDEX)
        pool.count[child_nodes.ravel()] = cnt.ravel()

        flat = cnt.ravel()
        sel = flat > 0
        nodes = child_nodes.ravel()[sel]
        starts = child_starts.ravel()[sel].astype(INDEX)
        ends = child_ends.ravel()[sel].astype(INDEX)
        level += 1

    if ctx is not None and account == "concurrent":
        _account_concurrent_build(pool, n, ctx)
    return pool


def _account_concurrent_build(pool: OctreePool, n: int, ctx) -> None:
    """Charge the *concurrent* algorithm's operation counts (Alg. 4/5).

    Per body: one acquire load of the child word per descent level; one
    CAS + one release store to insert.  Per subdivision: one CAS (lock),
    one relaxed fetch_add (bump allocation), one release store
    (publish).  Contention concentrates near the root where all threads
    funnel through few nodes; we charge one contended CAS per
    subdivision plus a small per-body term.
    """
    nn = pool.n_nodes
    leaves = pool.leaf_nodes()
    body_leaves = leaves[pool.count[leaves] > 0]
    descent_steps = float(
        (pool.depth[body_leaves].astype(float) * pool.count[body_leaves]).sum()
    )
    n_groups = (nn - 1) // pool.nchild
    word = 8.0
    # Lock conflicts concentrate near the root while the tree is small
    # and become rare as threads spread out ("the likelihood of waiting
    # decreases as the tree grows", Section IV-A).  Integrating the
    # conflict probability over the growing frontier gives a sublinear
    # count; we use kappa * sqrt(N) (empirical contention model — the
    # same kappa for every device and figure).
    contended = min(float(n), 30.0 * np.sqrt(float(n)))
    ctx.counters.add(
        # acquire loads during descent + one relaxed alloc fetch_add per
        # subdivision are cheap; insert (CAS + release store) and
        # subdivision (CAS + publish store) synchronize.
        atomic_ops=descent_steps + 2.0 * n + 3.0 * n_groups,
        sync_atomic_ops=2.0 * n + 2.0 * n_groups,
        contended_atomic_ops=contended,
        bytes_irregular=descent_steps * word,
        bytes_read=descent_steps * word + 32.0 * n,
        bytes_written=word * (2.0 * n + 3.0 * n_groups),
        loop_iterations=float(n),
        kernel_launches=1.0,
        lock_retries=0.0,
    )
