"""CALCULATEFORCE: the stackless per-body walk over a TreeView.

Every body walks the tree from the root in DFS order without a stack
(paper Fig. 3 for the octree, Section IV-B's skip list for the BVH).
At each node the view's class decides: ``KLASS_INTERNAL`` tests the
MAC ``size^2 < theta^2 * r^2`` and either accepts the node's multipole
(jump to ``escape``) or opens it (``first_child``); ``KLASS_POINT`` is
a one-body leaf, whose monopole *is* the exact interaction;
``KLASS_EXACT`` is a bucket leaf, expanded body by body after the walk
(:func:`expand_exact`, shared with the grouped driver); ``KLASS_SKIP``
(empty) is skipped.

The per-body walks are independent and lock-free, so the paper runs
them under ``par_unseq``; here all bodies advance together with masked
numpy ops — the SIMT execution of the C++ kernel — and every body's
walk length feeds the exact per-warp divergence charge.  The pairwise
law is pluggable: gravity, or t-SNE's Student-t (:mod:`repro.apps.tsne`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.physics.gravity import GravityParams
from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import (
    DONE,
    KLASS_EXACT,
    KLASS_INTERNAL,
    KLASS_POINT,
    TreeView,
    account_lockstep_force,
)
from repro.types import FLOAT, INDEX


class InteractionKernel(Protocol):
    """Pairwise law evaluated against tree nodes and bucket bodies.

    ``evaluate`` receives, row-wise, the squared distance to a node's
    centre of mass and the node's aggregate mass, and returns the vector
    weight ``w`` (the contribution is ``w * (com - x)``) and the scalar
    contribution ``z`` (ignored unless ``scalar`` is set).  It must
    vanish on ``r2 == 0`` rows (self-interaction).  ``pair`` is the same
    law for one bucket-leaf body in Python floats, returning
    ``(w, z)`` or None when the pair contributes nothing.  A kernel that
    walks order-2 trees provides ``quadrupole(dvec, r2, quad)``.
    """

    scalar: bool

    def evaluate(self, r2: np.ndarray, mass: np.ndarray): ...

    def pair(self, r2: float, mass: float): ...


@dataclass(frozen=True)
class GravityKernel:
    """The paper's force law (Equation 1, Plummer-softened)."""

    params: GravityParams = GravityParams()
    scalar = False

    def evaluate(self, r2, mass):
        r2f = r2 + self.params.eps2
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(r2f > 0.0, self.params.G * mass * r2f ** -1.5, 0.0)
        return w, None

    def pair(self, r2, mass):
        # Python-float pow: numpy's vector pow differs in the last bit.
        r2 = r2 + self.params.eps2
        return (self.params.G * mass * r2**-1.5, 0.0) if r2 > 0.0 else None

    def quadrupole(self, dvec, r2, quad):
        return quadrupole_accel(dvec, r2 + self.params.eps2, quad,
                                self.params.G)


def expand_exact(kernel, bodies, body, xi, x, m, acc, row, scalar=None) -> int:
    """Add bucket-leaf *bodies* (ids into *x*/*m*) acting on the target
    at *xi* into ``acc[row]`` (and ``scalar[row]``) one body at a time,
    skipping the target's own id *body*; returns the pairs counted —
    every pair the kernel does not reject, massless sources included."""
    pairs = 0
    for b in bodies:
        if b == body:
            continue
        d = x[b] - xi
        wz = kernel.pair(float(d @ d), m[b])
        if wz is not None:
            acc[row] += wz[0] * d
            if scalar is not None:
                scalar[row] += wz[1]
            pairs += 1
    return pairs


def lockstep_accelerations(
    view: TreeView,
    x: np.ndarray,
    m: np.ndarray,
    kernel: InteractionKernel,
    *,
    theta: float = 0.5,
    ctx=None,
    simt_width: int = 32,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The per-body walk of *kernel* for bodies *x*/*m* (caller order).

    Returns ``(vec, scalar)``: the vector field ``(N, dim)`` and, when
    ``kernel.scalar`` is set, the scalar field ``(N,)`` (else None).
    Bodies walk in ``view.body_order`` when the tree fixes one (the
    BVH), else in caller order — warp divergence, and so the modeled
    cost, depends on it.  The quadrupole term is added at accepted nodes
    when ``view.quad`` is set; bucket leaves are added after the walk.
    """
    x = np.asarray(x, dtype=FLOAT)
    n, dim = x.shape
    order = view.body_order
    xw = x if order is None else x[order]
    acc = np.zeros((n, dim), dtype=FLOAT)
    scalar = np.zeros(n, dtype=FLOAT) if kernel.scalar else None
    if n == 0 or view.mass.shape[0] == 0:
        return acc, scalar

    quad = view.quad
    theta2 = theta * theta
    ptr = np.zeros(n, dtype=INDEX)           # every body starts at the root
    steps = np.zeros(n, dtype=np.int64)
    interactions = quad_terms = 0
    buckets: list[tuple[np.ndarray, np.ndarray]] = []

    act = np.arange(n, dtype=INDEX)
    while act.size:
        nd = ptr[act]
        k = view.klass[nd]
        dvec = view.com[nd] - xw[act]
        r2 = np.einsum("ij,ij->i", dvec, dvec)
        internal = k == KLASS_INTERNAL
        accept = internal & (view.size2[nd] < theta2 * r2)
        contrib = accept | (k == KLASS_POINT)

        if contrib.any():
            w, z = kernel.evaluate(r2[contrib], view.mass[nd[contrib]])
            # `act` rows are unique, so fancy-index += is race-free here.
            acc[act[contrib]] += w[:, None] * dvec[contrib]
            if scalar is not None:
                scalar[act[contrib]] += z
            interactions += int(np.count_nonzero(w))
            if quad is not None:
                # Leaf monopoles are exact; their quadrupole is zero.
                q_rows = accept[contrib]
                if q_rows.any():
                    sel = np.nonzero(contrib)[0][q_rows]
                    acc[act[sel]] += kernel.quadrupole(
                        dvec[sel], r2[sel], quad[nd[sel]])
                    quad_terms += int(q_rows.sum())

        exact = k == KLASS_EXACT
        if exact.any():
            buckets.append((act[exact], nd[exact]))

        ptr[act] = np.where(internal & ~accept, view.first_child[nd],
                            view.escape[nd])
        steps[act] += 1
        act = act[ptr[act] != DONE]

    # Bucket leaves (deepest-cell collisions; rare), after the walk.
    for rows, nodes in buckets:
        for row, node in zip(rows, nodes):
            body = row if order is None else order[row]
            interactions += expand_exact(kernel, view.exact_bodies(int(node)),
                                         body, xw[row], x, m, acc, row, scalar)

    if ctx is not None:
        account_lockstep_force(ctx.counters, steps, interactions, dim=dim,
                               simt_width=simt_width,
                               visit_bytes=view.visit_bytes,
                               flops_per_visit=view.flops_per_visit,
                               quad_terms=quad_terms)
    if order is not None:  # back to caller order
        back = np.argsort(order)
        acc = acc[back]
        scalar = None if scalar is None else scalar[back]
    return acc, scalar
