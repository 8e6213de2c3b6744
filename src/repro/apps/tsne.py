"""Barnes-Hut t-SNE (van der Maaten [28]) on the reproduction's quadtree.

t-SNE embeds high-dimensional points into 2-D by matching pairwise
affinity distributions.  The gradient splits into an attractive part
over the (sparse) input affinities and a *repulsive part that is
exactly an N-body problem* with the Student-t kernel:

    dC/dy_i = 4 * ( sum_j p_ij q_ij (y_i - y_j)
                    - sum_j q_ij^2 (y_i - y_j) / Z ),   q_ij = 1/(1+|y_i-y_j|^2)

Barnes-Hut-SNE approximates the second sum (and Z) with a quadtree —
the very application the paper's introduction cites as the modern
driver for tree codes.  Here the repulsion is
:func:`repro.traversal.lockstep.lockstep_accelerations` with the
:class:`StudentTKernel` on the quadtree's
:func:`~repro.octree.force.octree_tree_view`, i.e. the identical walk
the gravity simulations use.

The implementation is deliberately classic: perplexity calibration by
binary search, early exaggeration, momentum gradient descent.  Dense
input affinities keep it O(N²) in the *input* space (fine for the
example sizes); the embedding-space repulsion is O(N log N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.traversal.lockstep import lockstep_accelerations
from repro.types import FLOAT


class StudentTKernel:
    """The Barnes-Hut-SNE repulsion kernel [28].

    With ``q = 1 / (1 + r^2)`` (Student-t with one degree of freedom),
    an accepted node of ``count`` points contributes ``count * q^2`` to
    the repulsive numerator (vector term) and ``count * q`` to the
    normalization Z (scalar term); a point at ``r2 == 0`` (itself, or a
    coincident twin) contributes nothing."""

    scalar = True

    def evaluate(self, r2, mass):
        q = 1.0 / (1.0 + r2)
        nonself = r2 > 0.0
        return (
            np.where(nonself, mass * q * q, 0.0),
            np.where(nonself, mass * q, 0.0),
        )

    def pair(self, r2, mass):
        if r2 > 0.0:
            q = 1.0 / (1.0 + r2)
            return mass * q * q, mass * q
        return None


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    s = np.einsum("ij,ij->i", x, x)
    d2 = s[:, None] + s[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def pairwise_affinities(
    x: np.ndarray,
    perplexity: float = 30.0,
    *,
    tol: float = 1e-5,
    max_iter: int = 60,
) -> np.ndarray:
    """Symmetrized input affinities P with per-point perplexity
    calibration (binary search over the Gaussian bandwidths)."""
    x = np.asarray(x, dtype=FLOAT)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    if not 1.0 <= perplexity < n:
        raise ValueError(f"perplexity must be in [1, n); got {perplexity}")
    d2 = _pairwise_sq_dists(x)
    target = np.log(perplexity)
    p = np.zeros((n, n), dtype=FLOAT)
    for i in range(n):
        di = np.delete(d2[i], i)
        beta_lo, beta_hi = 0.0, np.inf
        beta = 1.0
        for _ in range(max_iter):
            w = np.exp(-di * beta)
            sw = max(w.sum(), 1e-300)
            h = np.log(sw) + beta * float((di * w).sum()) / sw  # entropy
            if abs(h - target) < tol:
                break
            if h > target:          # too flat: raise beta
                beta_lo = beta
                beta = beta * 2.0 if beta_hi == np.inf else 0.5 * (beta + beta_hi)
            else:
                beta_hi = beta
                beta = 0.5 * (beta + beta_lo)
        row = np.exp(-np.maximum(d2[i], 0.0) * beta)
        row[i] = 0.0
        p[i] = row / max(row.sum(), 1e-300)
    p = (p + p.T) / (2.0 * n)
    return np.maximum(p, 1e-12)


@dataclass
class BarnesHutTSNE:
    """Barnes-Hut t-SNE into 2-D.

    Parameters follow the original: ``theta`` is the same distance
    threshold the simulations use (0.5 by default, as in the paper's
    experiments and in [28]).
    """

    perplexity: float = 30.0
    theta: float = 0.5
    n_iter: int = 350
    learning_rate: float = 100.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 80
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    seed: int = 0
    #: set False to use the exact O(N^2) repulsion (used by the tests
    #: to validate the tree approximation).
    use_tree: bool = True
    #: filled by fit_transform: KL divergence per recorded iteration.
    history: list[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    def _repulsion(self, y: np.ndarray):
        """(repulsion numerator sum_j q^2 (y_i - y_j), Z) via quadtree
        or exactly.  The tree traversal accumulates along ``com - y_i``
        (toward the node), so its vector field is negated here."""
        n = y.shape[0]
        if self.use_tree and n > 16:
            pool = build_octree_vectorized(y)
            compute_multipoles_vectorized(pool, y, np.ones(n))
            rep, z = lockstep_accelerations(
                octree_tree_view(pool), y, np.ones(n), StudentTKernel(),
                theta=self.theta)
            return -rep, float(z.sum())
        d2 = _pairwise_sq_dists(y)
        q = 1.0 / (1.0 + d2)
        np.fill_diagonal(q, 0.0)
        rep = np.einsum("ij,ijk->ik", q * q, y[:, None, :] - y[None, :, :])
        return rep, float(q.sum())

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Embed ``x (N, D)`` into 2-D."""
        x = np.asarray(x, dtype=FLOAT)
        n = x.shape[0]
        p = pairwise_affinities(x, self.perplexity)
        rng = np.random.default_rng(self.seed)
        y = 1e-4 * rng.standard_normal((n, 2))
        update = np.zeros_like(y)
        self.history = []

        for it in range(self.n_iter):
            exag = self.early_exaggeration if it < self.exaggeration_iters else 1.0
            momentum = (self.momentum_early if it < self.exaggeration_iters
                        else self.momentum_late)

            # Attractive term (dense P; q reweights each edge).
            diff = y[:, None, :] - y[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            q = 1.0 / (1.0 + d2)
            np.fill_diagonal(q, 0.0)
            attr = np.einsum("ij,ijk->ik", exag * p * q, diff)

            rep, z = self._repulsion(y)
            grad = 4.0 * (attr - rep / max(z, 1e-300))

            update = momentum * update - self.learning_rate * grad
            y += update
            y -= y.mean(axis=0)

            if it % 25 == 0 or it == self.n_iter - 1:
                qn = q / max(q.sum(), 1e-300)
                kl = float((p * np.log(np.maximum(p, 1e-12)
                                       / np.maximum(qn, 1e-12))).sum())
                self.history.append(kl)
        return y
