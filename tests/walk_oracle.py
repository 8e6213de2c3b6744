"""Scalar oracle of the lockstep walk: one body at a time over a TreeView.

It follows each body's stackless walk node by node and accumulates in
the walk's order with the batch kernel's primitives on one-row arrays
(``einsum`` on a ``(1, dim)`` row, array ``pow``), so it must equal
:func:`repro.traversal.lockstep.lockstep_accelerations` bit for bit.
Bucket leaves are collected during the walk and expanded after it in
Python floats (``float(d @ d)``, Python ``**``), as the walk does.
"""

from __future__ import annotations

import numpy as np

from repro.physics.gravity import GravityParams
from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import (
    DONE,
    KLASS_EXACT,
    KLASS_INTERNAL,
    KLASS_POINT,
    TreeView,
)


def scalar_walk(view: TreeView, x, m, params: GravityParams = GravityParams(),
                theta: float = 0.5) -> np.ndarray:
    """Gravitational accelerations of bodies *x*/*m* (caller order)."""
    x = np.asarray(x, dtype=float)
    n, dim = x.shape
    G, eps2, theta2 = params.G, params.eps2, theta * theta
    acc = np.zeros((n, dim))
    for i in range(n):
        xi = x[i]
        buckets = []
        node = 0
        while node != DONE:
            klass = view.klass[node]
            d = (view.com[node] - xi)[None]
            r2 = np.einsum("ij,ij->i", d, d)
            accept = (klass == KLASS_INTERNAL
                      and view.size2[node] < theta2 * r2[0])
            if accept or klass == KLASS_POINT:
                r2f = r2 + eps2
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = np.where(r2f > 0.0,
                                 G * view.mass[node:node + 1] * r2f ** -1.5,
                                 0.0)
                acc[i] += w[0] * d[0]
                if accept and view.quad is not None:
                    acc[i] += quadrupole_accel(
                        d, r2 + eps2, view.quad[node:node + 1], G)[0]
            elif klass == KLASS_EXACT:
                buckets.append(node)
            opens = klass == KLASS_INTERNAL and not accept
            node = int(view.first_child[node] if opens else view.escape[node])
        for node in buckets:
            for b in view.exact_bodies(node):
                if b == i:
                    continue
                d = x[b] - xi
                r2b = float(d @ d) + eps2
                if r2b > 0.0:
                    acc[i] += G * m[b] * r2b**-1.5 * d
    return acc
