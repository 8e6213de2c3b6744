"""Local expansions for the dual-tree traversal (M2L / L2L / L2P).

The dual-tree walk (:mod:`repro.traversal.dual`) approximates the
effect of a well-separated *source cell* on a whole *target cell* once,
instead of once per target body/group.  The machinery is a first-order
Cartesian Taylor expansion of the (softened) monopole acceleration
field about the target cell's centre ``c``:

    a(c + delta)  ~=  a0 + J delta

* **M2L** (multipole-to-local): a far source node with centre of mass
  ``s``, mass ``M`` and separation ``d = s - c``,
  ``r2 = |d|^2 + eps^2``, contributes

      a0 += G M d r2^-3/2                      (+ quadrupole term)
      J  += G M (3 d d^T r2^-5/2  -  I r2^-3/2)

  — the exact value and Jacobian of the Plummer-softened kernel at the
  centre, so softening is treated consistently rather than as an
  afterthought.
* **L2L** (local-to-local): shifting the truncated series from a parent
  centre to a child centre is exact at the stored order:
  ``a0' = a0 + J (c' - c)``, ``J' = J``.  The downsweep applies this
  top-down, one balanced-tree level per parallel round.
* **L2P** (local-to-particle): each body evaluates its leaf's series at
  its own position, ``acc += a0 + J (x - c)``.

At ``expansion_order=2`` the series additionally carries the symmetric
third-derivative tensor ``H`` of the kernel (``H_ijk = dJ_ij/dx_k``):

    M2L:  H += G M (15 d_i d_j d_k r2^-7/2
                    - 3 (delta_ij d_k + delta_ik d_j + delta_jk d_i)
                        r2^-5/2)
    L2L:  a0' = a0 + J delta + 1/2 H:delta delta
          J'  = J + H . delta,   H' = H
    L2P:  acc += a0 + J dx + 1/2 H:dx dx

which pushes the Taylor truncation from second to third order in the
(target size / distance) ratio — the accuracy headroom that lets the
dual walk open ``cc_mac`` past 1 while staying inside the grouped-mode
error envelope.

M2L builds and scatters only the distinct components: one packed
``(n_nodes, 3 + 6 + 18)`` buffer at dim 3 (``a0``, the Jacobian's
``i <= j`` terms, the third-derivative terms ``(i <= j, l)``) instead
of 39 full-tensor columns, expanded to ``jac`` / ``hess`` once per
target node.  The third-derivative tensor is
symmetric in all index pairs mathematically, but not bitwise: its
product ``(d_i d_j) d_l`` makes ``H_ijl`` and ``H_lji`` differ in the
last bit, so the 10 fully symmetric components could not reproduce the
full-tensor formulation exactly.  The 18 do, bit for bit.

Error model: a far pair is accepted only when the *source* passes the
conservative MAC against the target box (``size_s < theta * dmin``, so
the multipole error keeps the paper's O(theta^2) bound) **and** the
*target* box is small against the same distance
(``size_t < theta * cc_mac * dmin``), which bounds the Taylor
truncation — the first neglected term — by
O((theta * cc_mac)^(order + 1)) relative.  Both error sources
therefore scale with theta, and the total stays within a small constant
of the one-sided grouped bound (pinned by the property tests).
``expansion_order=0`` keeps only ``a0`` (the cell-centre force, a
cheaper but coarser substitution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.physics.gravity import FLOPS_PER_INTERACTION
from repro.physics.multipole import quadrupole_accel
from repro.types import FLOAT

#: FP64 work of one M2L beyond the monopole point evaluation (the
#: Jacobian outer product + scaled identity, dim = 3).
M2L_JACOBIAN_FLOPS = 40.0
#: Extra FP64 of the order-2 M2L (symmetric third-derivative tensor).
M2L_HESSIAN_FLOPS = 90.0
#: Per-node L2L shift (matrix-vector + adds) and per-body L2P work at
#: order 1; order 2 adds the tensor contraction on top.
L2L_FLOPS = 24.0
L2P_FLOPS = 24.0
L2_HESSIAN_FLOPS = 45.0


def expansion_words(dim: int, order: int) -> float:
    """Stored floats per node: ``a0``, plus the Jacobian at order >= 1,
    plus the third-derivative tensor at order >= 2.

    This is the modeled device layout (full tensors, 39 words at dim 3
    and order 2), not the host M2L's packed scatter; it stays as it is
    so the cost model does not move."""
    words = dim
    if order >= 1:
        words += dim * dim
    if order >= 2:
        words += dim * dim * dim
    return float(words)


@dataclass
class LocalExpansion:
    """Per-target-node truncated Taylor series of the acceleration."""

    a0: np.ndarray               # (n_nodes, dim) value at node centre
    jac: np.ndarray | None       # (n_nodes, dim, dim); None at order 0
    #: (n_nodes, dim, dim, dim) kernel third derivatives; None below
    #: order 2.  Exactly symmetric in (i, j); symmetric to round-off in
    #: the other index pairs.
    hess: np.ndarray | None = None

    @property
    def order(self) -> int:
        if self.hess is not None:
            return 2
        return 0 if self.jac is None else 1

    @classmethod
    def zeros(cls, n_nodes: int, dim: int, order: int = 1) -> "LocalExpansion":
        jac = (np.zeros((n_nodes, dim, dim), dtype=FLOAT)
               if order >= 1 else None)
        hess = (np.zeros((n_nodes, dim, dim, dim), dtype=FLOAT)
                if order >= 2 else None)
        return cls(np.zeros((n_nodes, dim), dtype=FLOAT), jac, hess)


def scatter_add(out: np.ndarray, idx: np.ndarray, terms: np.ndarray) -> None:
    """``np.add.at(out, idx, terms)`` as one ``np.bincount`` per
    component: the same per-target sums in index order, so bitwise equal
    to it on a zero *out*, and several times faster."""
    flat_out = out.reshape(out.shape[0], -1)
    flat_terms = terms.reshape(terms.shape[0], -1)
    for c in range(flat_out.shape[1]):
        flat_out[:, c] += np.bincount(idx, weights=flat_terms[:, c],
                                      minlength=out.shape[0])


def m2l_accumulate(
    exp: LocalExpansion,
    far_t: np.ndarray,
    far_s: np.ndarray,
    com: np.ndarray,
    mass: np.ndarray,
    center: np.ndarray,
    *,
    G: float = 1.0,
    eps2: float = 0.0,
    quad: np.ndarray | None = None,
) -> int:
    """Accumulate every far pair's field into its target's expansion.

    ``far_t`` indexes target-tree nodes (rows of *center* / the
    expansion), ``far_s`` source-tree nodes (rows of *com* / *mass*).
    Pairs sharing a target are summed in index order (one ``bincount``
    per packed component) into the expansion, which must start at zero; the
    caller provides them in a deterministic order, so the accumulation
    — and hence the whole dual force — is bitwise reproducible.

    Returns the number of quadrupole terms applied (for accounting).
    """
    if far_t.size == 0:
        return 0
    # Row gathers by ``take``: the same values as fancy indexing, about
    # a quarter of its time.
    d = com.take(far_s, axis=0)
    d -= center.take(far_t, axis=0)
    r2 = np.einsum("kj,kj->k", d, d) + eps2
    inv_r3 = r2 ** -1.5
    m = mass.take(far_s)
    w = G * m * inv_r3
    a0_terms = w[:, None] * d
    quad_terms = 0
    if quad is not None:
        a0_terms += quadrupole_accel(d, r2, quad.take(far_s, axis=0), G)
        quad_terms = int(far_t.shape[0])
    # Packed components: a0, then J_ij (i <= j), then H_ijl (i <= j, any
    # l), each from component rows of d in the full-tensor formula's
    # product and summation order, so the expansion is bitwise the same.
    # Each row is scattered as soon as it is formed: no (components, k)
    # block is ever held.
    dim = d.shape[1]
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    n_j = len(pairs) if exp.jac is not None else 0
    h_dim = dim if exp.hess is not None else 0
    n_t = exp.a0.shape[0]
    packed = np.zeros((dim + n_j * (1 + h_dim), n_t), dtype=FLOAT)
    scatter_add(packed[:dim].T, far_t, a0_terms)
    hess_rows = packed[dim + n_j:].reshape(n_j, h_dim, n_t)
    dc = np.ascontiguousarray(d.T)
    inv_r5 = inv_r3 / r2
    w5 = 3.0 * G * m * inv_r5
    w7 = 15.0 * G * m * (inv_r5 / r2)
    for p, (i, j) in enumerate(pairs[:n_j]):
        dd = dc[i] * dc[j]
        scatter_add(packed[dim + p], far_t,
                    w5 * dd - w if i == j else w5 * dd)
        for c in range(h_dim):
            # delta_ij d_c + delta_ic d_j + delta_jc d_i, zero terms skipped
            e = [dc[b] for hit, b in ((i == j, c), (i == c, j), (j == c, i))
                 if hit]
            h = w7 * (dd * dc[c])
            scatter_add(hess_rows[p, c], far_t,
                        h - w5 * sum(e[1:], e[0]) if e else h)
    exp.a0 += packed[:dim].T
    sym = [pairs.index((min(i, j), max(i, j)))
           for i in range(dim) for j in range(dim)]
    if n_j:
        exp.jac += packed[dim:dim + n_j][sym].T.reshape(exp.jac.shape)
    if h_dim:
        exp.hess += packed[dim + n_j:].T.reshape(-1, n_j, dim)[:, sym] \
            .reshape(exp.hess.shape)
    return quad_terms


def l2l_shift(
    exp: LocalExpansion,
    parents: np.ndarray,
    children: np.ndarray,
    center: np.ndarray,
) -> None:
    """Shift parent expansions into *children* (one tree level).

    Exact at the stored order: the child inherits the parent's series
    re-centred at the child centre.  Empty nodes carry zero expansions
    and zero centres, so no masking is needed — their contribution is
    identically zero.
    """
    exp.a0[children] += exp.a0[parents]
    if exp.jac is not None:
        delta = center[children] - center[parents]
        exp.a0[children] += np.einsum(
            "kij,kj->ki", exp.jac[parents], delta)
        exp.jac[children] += exp.jac[parents]
        if exp.hess is not None:
            hp = exp.hess[parents]
            exp.a0[children] += 0.5 * np.einsum(
                "kijl,kj,kl->ki", hp, delta, delta)
            exp.jac[children] += np.einsum("kijl,kl->kij", hp, delta)
            exp.hess[children] += hp


def l2l_sweep(exp: LocalExpansion, layout, center: np.ndarray, ctx=None) -> int:
    """Top-down downsweep over the balanced target tree.

    One parallel round per level (the nodes of a level are independent:
    each child is written exactly once, no atomics), expressed as a
    ``stdpar.for_each`` under ``par_unseq`` when a context is given —
    the same policy/vectorization-safety rules as every other kernel.
    Returns the number of child nodes shifted (for accounting).
    """
    shifted = 0
    for level in range(1, layout.n_levels):
        sl = layout.level_slice(level)
        children = np.arange(sl.start, sl.stop, dtype=np.int64)
        parents = (children - 1) // 2
        shifted += children.shape[0]
        if ctx is not None:
            from repro.stdpar.algorithms import for_each
            from repro.stdpar.kernel import Kernel
            from repro.stdpar.policy import par_unseq

            for_each(
                par_unseq, children,
                Kernel(name="l2l_shift",
                       batch=lambda ch, p=parents: l2l_shift(
                           exp, p, ch, center)),
                ctx,
            )
        else:
            l2l_shift(exp, parents, children, center)
    return shifted


def l2p_evaluate(
    exp: LocalExpansion,
    leaf_of_row: np.ndarray,
    x_sorted: np.ndarray,
    center: np.ndarray,
) -> np.ndarray:
    """Evaluate each body's leaf expansion at the body position."""
    a = exp.a0[leaf_of_row].copy()
    if exp.jac is not None:
        delta = x_sorted - center[leaf_of_row]
        a += np.einsum("kij,kj->ki", exp.jac[leaf_of_row], delta)
        if exp.hess is not None:
            a += 0.5 * np.einsum(
                "kijl,kj,kl->ki", exp.hess[leaf_of_row], delta, delta)
    return a


def m2l_flops(dim: int, order: int) -> float:
    """FP64 per far pair: point kernel + derivative tensors by order."""
    flops = FLOPS_PER_INTERACTION
    if order >= 1:
        flops += M2L_JACOBIAN_FLOPS
    if order >= 2:
        flops += M2L_HESSIAN_FLOPS
    return flops


def l2_flops(order: int) -> float:
    """FP64 of one L2L shift / one L2P evaluation at *order*."""
    base = L2L_FLOPS if order >= 1 else 6.0
    return base + (L2_HESSIAN_FLOPS if order >= 2 else 0.0)
