"""Quadrupole moments and their force contribution.

The paper uses monopoles (centre of mass) "for exposition" and notes
that "the algorithms described here extend to multipoles" (Section IV,
CALCULATEMULTIPOLES).  This module supplies that extension for both
tree strategies: the traceless quadrupole tensor

    Q_ij = sum_b m_b (3 d_i d_j - |d|^2 delta_ij),   d = x_b - com

its parallel-axis combination rule (how a parent's Q is reduced from
its children's, the operation both tree reductions need), and the
acceleration of the order-2 expansion

    a(r) = -G M d / r^3  +  G [ 2.5 (d^T Q d) d / r^7 - Q d / r^5 ] / ...

written in the conventions of the traversal kernels (``d = com -
target``).  The dipole term vanishes identically because moments are
taken about the centre of mass.

Quadrupoles are 3-D only (the tensor structure comes from the 1/r
Green's function in three dimensions); 2-D systems use monopoles.
"""

from __future__ import annotations

import numpy as np

from repro.types import FLOAT

#: Legal multipole expansion orders: 1 = monopole, 2 = + quadrupole.
MULTIPOLE_ORDERS = (1, 2)

#: Extra FP64 work of one quadrupole interaction beyond the monopole
#: (tensor contraction + two extra powers of 1/r), for cost accounting.
QUAD_EXTRA_FLOPS = 36.0
#: Extra node bytes per visit (6 unique tensor components stored as 9).
QUAD_EXTRA_BYTES = 72.0


def check_multipole_order(order: int, dim: int) -> None:
    """Raise ``ValueError`` unless the tree builders can compute moments
    of *order* in *dim* dimensions."""
    if order not in MULTIPOLE_ORDERS:
        raise ValueError(f"multipole order must be one of {MULTIPOLE_ORDERS}, "
                         f"got {order}")
    if order == 2 and dim != 3:
        raise ValueError("quadrupole moments are 3-D only")


def quadrupole_of_points(x: np.ndarray, m: np.ndarray, com: np.ndarray) -> np.ndarray:
    """Traceless quadrupole of a point set about *com* (3x3)."""
    x = np.asarray(x, dtype=FLOAT)
    m = np.asarray(m, dtype=FLOAT)
    d = x - com
    r2 = np.einsum("bi,bi->b", d, d)
    outer = np.einsum("b,bi,bj->ij", m, d, d)
    return 3.0 * outer - np.einsum("b,b->", m, r2) * np.eye(x.shape[1])


def combine_quadrupoles(
    q_children: np.ndarray,
    mass_children: np.ndarray,
    com_children: np.ndarray,
    com_parent: np.ndarray,
) -> np.ndarray:
    """Batched parent reduction.

    ``q_children (P, C, 3, 3)``, ``mass_children (P, C)``,
    ``com_children (P, C, 3)``, ``com_parent (P, 3)`` → ``(P, 3, 3)``:
    each of P parents reduces its C children.
    """
    s = com_children - com_parent[:, None, :]
    s2 = np.einsum("pci,pci->pc", s, s)
    eye = np.eye(s.shape[-1])
    shift = 3.0 * np.einsum("pc,pci,pcj->pcij", mass_children, s, s)
    shift -= (mass_children * s2)[..., None, None] * eye
    return (q_children + shift).sum(axis=1)


def quadrupole_accel(
    dvec: np.ndarray,
    r2: np.ndarray,
    quad: np.ndarray,
    G: float,
) -> np.ndarray:
    """Quadrupole acceleration term for traversal rows.

    ``dvec (K, 3)`` is ``com - target`` (the traversal convention),
    ``r2 (K,)`` its squared length (softened by the caller), ``quad
    (K, 3, 3)`` the node tensors.  Zero rows (r2 == 0) return zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r5 = np.where(r2 > 0.0, r2 ** -2.5, 0.0)
        inv_r7 = np.where(r2 > 0.0, r2 ** -3.5, 0.0)
    qd = np.einsum("kij,kj->ki", quad, dvec)
    dqd = np.einsum("ki,ki->k", dvec, qd)
    # Derived from a = -grad(-G/2 d^T Q d / r^5) with d = target - com,
    # rewritten for dvec = -d.
    return G * (2.5 * (dqd * inv_r7)[:, None] * dvec - qd * inv_r5[:, None])


def exact_cluster_accel(
    target: np.ndarray,
    x: np.ndarray,
    m: np.ndarray,
    G: float = 1.0,
) -> np.ndarray:
    """Reference: exact acceleration at *target* from a point cluster
    (used by the tests to verify the expansion's convergence order)."""
    d = x - target
    r2 = np.einsum("bi,bi->b", d, d)
    return G * np.einsum("b,b,bi->i", m, r2 ** -1.5, d)
