"""Concurrent BUILDTREE: paper Algorithm 4 with Algorithm 5's critical
section, as virtual threads.

One thread per body performs a root-to-leaf traversal of the growing
tree, locking Empty or Body-containing leaves with
``compare_exchange`` (acquire) and publishing insertions/subdivisions
with release stores.  The protocol is starvation-free: it terminates iff
every thread that enters a critical section is eventually rescheduled,
i.e. iff the executor provides *parallel forward progress*.  Running it
on the FAIR scheduler (CPU / ITS GPU) completes; on the LOCKSTEP
scheduler (GPU without ITS) it livelocks, which the scheduler detects —
both behaviours are exercised by the tests and the progress-semantics
benchmark, reproducing paper Section V-B.

Descent uses the body's precomputed Morton digits, which is exactly the
geometric "child covering b" choice on the quantized grid and guarantees
bit-identical placement with the vectorized builder.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.errors import AllocatorExhausted
from repro.geometry.aabb import AABB, compute_bounding_box, quantize_to_grid
from repro.geometry.morton import max_bits, morton_child_digits, morton_encode
from repro.octree.layout import EMPTY, LOCKED, OctreePool, decode_body, encode_body
from repro.stdpar.atomics import AtomicArray, acquire, relaxed, release
from repro.stdpar.context import ExecutionContext
from repro.stdpar.kernel import kernel_from_functions
from repro.stdpar.scheduler import CompareExchange, FetchAdd, Load, Op, Pause, Store
from repro.stdpar.policy import par
from repro.types import INDEX


def _insert_thread(
    pool: OctreePool,
    atom_child: AtomicArray,
    atom_alloc: AtomicArray,
    digits: np.ndarray,
    body: int,
) -> Generator[Op, Any, None]:
    """Virtual thread inserting one body (Algorithm 4)."""
    nch = pool.nchild
    bits = pool.bits
    index = 0
    depth = 0
    while True:
        next_ = int((yield Load(atom_child, index, acquire)))
        if next_ >= 0:
            # Internal node: traverse to the sibling covering b.
            index = next_ + int(digits[depth])
            depth += 1
            continue
        if next_ == LOCKED:
            # Failed to lock: try again (the spin of Algorithm 4 line 17).
            yield Pause()
            continue
        if next_ == EMPTY:
            ok, _ = yield CompareExchange(atom_child, index, EMPTY, LOCKED, acquire, relaxed)
            if not ok:
                continue
            # Critical section: insert b at the empty leaf.
            yield Store(atom_child, index, encode_body(body), release)
            return
        # Leaf containing a body: lock it, then either chain (max depth)
        # or subdivide (Algorithm 5).
        ok, _ = yield CompareExchange(atom_child, index, next_, LOCKED, acquire, relaxed)
        if not ok:
            continue
        occupant = decode_body(next_)
        if depth == bits:
            # Cannot subdivide further: append to the bucket chain.
            pool.next_body[body] = occupant
            yield Store(atom_child, index, encode_body(body), release)
            return
        # Allocate children and move the occupant into the child
        # covering it; the new children are unpublished, so plain writes
        # are race-free until the release store below.
        gid = int((yield FetchAdd(atom_alloc, 0, 1, relaxed)))
        first = 1 + gid * nch
        if first + nch > pool.capacity:
            raise AllocatorExhausted(
                f"concurrent octree pool exhausted at node {first + nch}"
            )
        pool.depth[first : first + nch] = depth + 1
        pool.parent_of_group[gid] = index
        occ_digit = int(digits_of_occupant(pool, occupant, depth))
        pool.child[first + occ_digit] = encode_body(occupant)
        yield Store(atom_child, index, first, release)
        # Next try traverses to the children (Algorithm 4 line 16).


def digits_of_occupant(pool: OctreePool, occupant: int, depth: int) -> int:
    """Morton child digit of *occupant* at *depth* (set by the builder)."""
    return pool._digits[occupant, depth]  # type: ignore[attr-defined]


def build_octree_concurrent(
    x: np.ndarray,
    *,
    bits: int | None = None,
    box: AABB | None = None,
    ctx: ExecutionContext | None = None,
    capacity: int | None = None,
) -> OctreePool:
    """Build the octree by concurrent insertion on the virtual-thread
    scheduler.  Semantics (FAIR completes / LOCKSTEP livelocks) follow
    the context's device; the pool is retried doubled on exhaustion.
    """
    x = np.asarray(x, dtype=float)
    n, dim = x.shape
    bits = max_bits(dim) if bits is None else bits
    if box is None:
        box = compute_bounding_box(x) if n else AABB.empty(dim)
    if ctx is None:
        ctx = ExecutionContext(backend="reference")

    grid = quantize_to_grid(x, box, bits) if n else np.zeros((0, dim), dtype=np.uint64)
    codes = morton_encode(grid, bits) if n else np.zeros(0, dtype=np.uint64)
    digits = morton_child_digits(codes, bits, dim) if n else np.zeros((0, bits), dtype=INDEX)

    cap = capacity if capacity is not None else OctreePool.estimate_capacity(n, dim, bits)
    while True:
        pool = OctreePool(dim=dim, bits=bits, box=box, capacity=cap, n_bodies=n)
        pool._digits = digits  # type: ignore[attr-defined]
        if n == 0:
            return pool
        atom_child = AtomicArray(pool.child, ctx.counters)
        alloc_counter = np.zeros(1, dtype=INDEX)
        atom_alloc = AtomicArray(alloc_counter, ctx.counters)

        kernel = kernel_from_functions(
            "octree_build",
            scalar=lambda b: _insert_thread(pool, atom_child, atom_alloc, digits[b], int(b)),
            uses_atomics=True,
        )
        try:
            from repro.stdpar.algorithms import for_each

            for_each(par, np.arange(n), kernel, ctx)
        except AllocatorExhausted:
            cap *= 2
            continue
        groups = int(alloc_counter[0])
        pool.n_nodes = 1 + groups * pool.nchild
        pool._next_group_slot = pool.n_nodes
        pool.count[0] = n
        return pool
