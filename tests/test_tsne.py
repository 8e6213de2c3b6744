"""Tests for the lockstep walk's pluggable kernels and the Barnes-Hut
t-SNE app (the paper's motivating machine-learning application [27],
[28])."""

import numpy as np
import pytest

from repro.apps.tsne import (
    BarnesHutTSNE,
    StudentTKernel,
    _pairwise_sq_dists,
    pairwise_affinities,
)
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.gravity import (
    SPECIAL_PER_INTERACTION,
    GravityParams,
    pairwise_accelerations,
)
from repro.stdpar.context import ExecutionContext
from repro.traversal.lockstep import GravityKernel, lockstep_accelerations


def clusters(n_per=50, k=3, d=8, seed=0, spread=8.0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d)) * spread
    x = np.vstack([c + rng.standard_normal((n_per, d)) for c in centers])
    return x, np.repeat(np.arange(k), n_per)


def tree_interaction(pool, x, m, kernel, *, theta=0.5, ctx=None):
    """The lockstep walk of *kernel* over the quadtree *pool*."""
    return lockstep_accelerations(octree_tree_view(pool), x, m, kernel,
                                  theta=theta, ctx=ctx)


class TestTreeInteraction:
    def test_gravity_kernel_matches_force_module(self, small_cloud):
        params = GravityParams(softening=1e-3)
        pool = build_octree_vectorized(small_cloud.x)
        compute_multipoles_vectorized(pool, small_cloud.x, small_cloud.m)
        vec, scalar = tree_interaction(
            pool, small_cloud.x, small_cloud.m,
            GravityKernel(params), theta=0.0,
        )
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m, params)
        assert np.allclose(vec, ref, rtol=1e-9)
        assert scalar is None

    def test_student_t_exact_at_theta_zero(self, rng):
        y = rng.standard_normal((150, 2))
        ones = np.ones(150)
        pool = build_octree_vectorized(y)
        compute_multipoles_vectorized(pool, y, ones)
        vec, z = tree_interaction(pool, y, ones, StudentTKernel(), theta=0.0)

        d2 = _pairwise_sq_dists(y)
        q = 1.0 / (1.0 + d2)
        np.fill_diagonal(q, 0.0)
        ref_vec = np.einsum("ij,ijk->ik", q * q, y[None, :, :] - y[:, None, :])
        assert np.allclose(vec, ref_vec, atol=1e-10)
        assert np.allclose(z, q.sum(axis=1), atol=1e-10)

    def test_student_t_approximation_bounded(self, rng):
        y = rng.standard_normal((300, 2)) * 3
        ones = np.ones(300)
        pool = build_octree_vectorized(y)
        compute_multipoles_vectorized(pool, y, ones)
        v0, z0 = tree_interaction(pool, y, ones, StudentTKernel(), theta=0.0)
        v5, z5 = tree_interaction(pool, y, ones, StudentTKernel(), theta=0.5)
        assert np.abs(z5 - z0).max() / z0.max() < 0.05
        scale = np.abs(v0).max()
        assert np.abs(v5 - v0).max() / scale < 0.1

    def test_requires_multipoles(self, rng):
        y = rng.standard_normal((20, 2))
        pool = build_octree_vectorized(y)
        with pytest.raises(ValueError):
            tree_interaction(pool, y, np.ones(20), StudentTKernel())

    def test_self_interaction_excluded(self):
        """Coincident points: q(0)=1 must not count the point itself."""
        y = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        pool = build_octree_vectorized(y, bits=4)
        compute_multipoles_vectorized(pool, y, np.ones(3))
        _, z = tree_interaction(pool, y, np.ones(3), StudentTKernel(), theta=0.0)
        # point 0 sees point 1 at distance 0 (excluded -> contributes 0)
        # and point 2 at distance 3.
        assert z[0] == pytest.approx(1.0 / (1.0 + 9.0), rel=1e-9)

    def test_accounting_counts_nonzero_weights(self, rng):
        """At theta=0 distinct points interact pairwise: n*(n-1)
        interactions are charged, not one per node visit."""
        n = 60
        y = rng.standard_normal((n, 2))
        pool = build_octree_vectorized(y)
        compute_multipoles_vectorized(pool, y, np.ones(n))
        ctx = ExecutionContext()
        tree_interaction(pool, y, np.ones(n), StudentTKernel(), theta=0.0,
                         ctx=ctx)
        assert (ctx.counters.special_flops
                == n * (n - 1) * SPECIAL_PER_INTERACTION)


class TestAffinities:
    def test_symmetric_and_normalized(self):
        x, _ = clusters(n_per=20)
        p = pairwise_affinities(x, perplexity=10)
        assert np.allclose(p, p.T)
        assert p.sum() == pytest.approx(1.0, rel=1e-6)
        assert (np.diag(p) < 1e-10).all()

    def test_perplexity_achieved(self):
        """Row conditional entropies hit log(perplexity)."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((80, 5))
        perp = 15.0
        d2 = _pairwise_sq_dists(x)
        # recompute the conditional rows the function calibrates
        from repro.apps.tsne import pairwise_affinities as pa
        p = pa(x, perplexity=perp)
        # symmetrization halves things; check entropy near log(perp)
        # via the joint: effective neighbors per row ~ perplexity
        row = p[0] / p[0].sum()
        h = -(row[row > 0] * np.log(row[row > 0])).sum()
        assert np.exp(h) == pytest.approx(perp, rel=0.5)

    def test_nearer_points_higher_affinity(self):
        x = np.array([[0.0], [0.1], [5.0]])
        p = pairwise_affinities(x, perplexity=1.5)
        assert p[0, 1] > p[0, 2]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pairwise_affinities(np.zeros((5, 2)), perplexity=10)  # >= n
        with pytest.raises(ValueError):
            pairwise_affinities(np.zeros((1, 2)))


class TestBarnesHutTSNE:
    def test_separates_clusters(self):
        x, labels = clusters(n_per=40, k=3)
        tsne = BarnesHutTSNE(perplexity=15, n_iter=250, seed=1)
        y = tsne.fit_transform(x)
        assert y.shape == (120, 2)
        within, between = [], []
        for a in range(3):
            ya = y[labels == a]
            within.append(np.linalg.norm(ya - ya.mean(0), axis=1).mean())
            for b in range(a + 1, 3):
                between.append(np.linalg.norm(ya.mean(0) - y[labels == b].mean(0)))
        assert np.mean(between) > 3 * np.mean(within)

    def test_kl_decreases(self):
        """KL rises during early exaggeration (the recorded KL uses the
        un-exaggerated P), then declines monotonically once the true
        objective is optimized."""
        x, _ = clusters(n_per=30, k=2)
        tsne = BarnesHutTSNE(perplexity=10, n_iter=300, seed=0)
        tsne.fit_transform(x)
        h = tsne.history
        assert h[-1] < 0.7 * max(h)
        post = h[5:]  # after exaggeration
        assert all(a >= b - 1e-9 for a, b in zip(post, post[1:]))

    def test_tree_matches_exact_repulsion(self, rng):
        y = rng.standard_normal((120, 2))
        tree = BarnesHutTSNE(use_tree=True, theta=0.0)
        exact = BarnesHutTSNE(use_tree=False)
        rt, zt = tree._repulsion(y)
        re_, ze = exact._repulsion(y)
        assert np.allclose(rt, re_, atol=1e-10)
        assert zt == pytest.approx(ze, rel=1e-12)

    def test_deterministic(self):
        x, _ = clusters(n_per=20, k=2)
        a = BarnesHutTSNE(n_iter=60, seed=3, perplexity=10).fit_transform(x)
        b = BarnesHutTSNE(n_iter=60, seed=3, perplexity=10).fit_transform(x)
        assert np.array_equal(a, b)

    def test_embedding_centered(self):
        x, _ = clusters(n_per=20, k=2)
        y = BarnesHutTSNE(n_iter=50, seed=0, perplexity=10).fit_transform(x)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-9)
