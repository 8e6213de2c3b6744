"""Generic Barnes-Hut tree interaction with pluggable kernels.

The paper motivates tree codes beyond gravity: "the tree data
structures it uses are transferable to other domains and algorithms"
(Section I), naming t-SNE's high-dimensional visualization as the
modern driver [27], [28].  This module generalizes the stackless
lockstep traversal to an arbitrary pairwise kernel: an accepted node
contributes a *vector* term (weight × direction) and optionally a
*scalar* term (e.g. t-SNE's normalization mass Z) — gravity is the
special case ``w = G m r^-3`` with no scalar.

The traversal, acceptance criterion, bucket handling and divergence
accounting are identical to :mod:`repro.octree.force`.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.octree.layout import OctreePool
from repro.octree.traversal import DONE, compute_escape_indices
from repro.types import FLOAT, INDEX


class InteractionKernel(Protocol):
    """Pairwise interaction evaluated against tree nodes.

    ``evaluate`` receives, row-wise, the squared distance to the node's
    centre of mass and the node's aggregate mass (body count when all
    masses are 1), and returns the vector weight ``w`` (the
    contribution is ``w * dvec``) and the scalar contribution ``z``.
    It must vanish for ``r2 == 0`` rows (self-interaction)."""

    def evaluate(
        self, r2: np.ndarray, mass: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...


class GravityKernel:
    """The paper's force law as an :class:`InteractionKernel`."""

    def __init__(self, G: float = 1.0, softening: float = 0.0):
        self.G = G
        self.eps2 = softening * softening

    def evaluate(self, r2, mass):
        r2f = r2 + self.eps2
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(r2f > 0.0, self.G * mass * r2f ** -1.5, 0.0)
        return w, np.zeros_like(w)


class StudentTKernel:
    """The Barnes-Hut-SNE repulsion kernel [28].

    With ``q = 1 / (1 + r^2)`` (Student-t with one degree of freedom),
    an accepted node of ``count`` points contributes ``count * q^2`` to
    the repulsive numerator (vector term) and ``count * q`` to the
    normalization Z (scalar term)."""

    def evaluate(self, r2, mass):
        q = 1.0 / (1.0 + r2)
        # self-interaction guard: r2 == 0 rows would contribute q = 1
        # to their own sum; the caller excludes them via zero weight.
        nonself = r2 > 0.0
        return (
            np.where(nonself, mass * q * q, 0.0),
            np.where(nonself, mass * q, 0.0),
        )


def tree_interaction(
    pool: OctreePool,
    x: np.ndarray,
    m: np.ndarray,
    kernel: InteractionKernel,
    *,
    theta: float = 0.5,
    ctx=None,
    simt_width: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep Barnes-Hut evaluation of *kernel* for every body.

    Returns ``(vec, scalar)``: the accumulated vector field ``(N, dim)``
    and scalar field ``(N,)``.  Multipoles must be computed on *pool*.
    """
    if pool.com is None:
        raise ValueError("multipoles must be computed before tree_interaction")
    if pool.escape is None:
        compute_escape_indices(pool)
    x = np.asarray(x, dtype=FLOAT)
    n, dim = x.shape
    vec = np.zeros((n, dim), dtype=FLOAT)
    scalar = np.zeros(n, dtype=FLOAT)
    if n == 0 or pool.n_nodes == 0:
        return vec, scalar

    nn = pool.n_nodes
    child = pool.child[:nn]
    com = pool.com
    mass = pool.mass[:nn]
    count = pool.count[:nn]
    escape = pool.escape
    side2 = pool.node_side(pool.depth[:nn]) ** 2
    theta2 = theta * theta

    ptr = np.zeros(n, dtype=INDEX)
    steps = np.zeros(n, dtype=np.int64)
    bucket_pairs: list[tuple[np.ndarray, np.ndarray]] = []

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
            w, z = kernel.evaluate(r2[contrib], mass[nd][contrib])
            vec[act[contrib]] += w[:, None] * dvec[contrib]
            scalar[act[contrib]] += z

        if bucket.any():
            bucket_pairs.append((act[bucket].copy(), nd[bucket].copy()))

        ptr[act] = np.where(accept | leaf, escape[nd], c)
        steps[act] += 1
        act = act[ptr[act] != DONE]

    for targets, nodes in bucket_pairs:
        for i, node in zip(targets, nodes):
            for b in pool.leaf_bodies(int(node)):
                if b == i:
                    continue
                d = x[b] - x[i]
                r2b = np.array([float(d @ d)])
                w, z = kernel.evaluate(r2b, np.array([m[b]]))
                vec[i] += w[0] * d
                scalar[i] += z[0]

    if ctx is not None:
        from repro.octree.force import _FLOPS_PER_VISIT, _visit_bytes
        from repro.traversal.engine import account_lockstep_force

        interactions = int(steps.sum())  # upper bound: one eval per visit
        account_lockstep_force(ctx.counters, steps, interactions, dim=dim,
                               simt_width=simt_width,
                               visit_bytes=_visit_bytes(dim),
                               flops_per_visit=_FLOPS_PER_VISIT)
    return vec, scalar
