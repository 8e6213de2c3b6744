"""Tests for CALCULATEFORCE over the octree (Fig. 3 traversal)."""

import numpy as np
import pytest

from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_accelerations, octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.stdpar.context import ExecutionContext
from repro.traversal.engine import KLASS_EXACT
from tests.walk_oracle import scalar_walk


def bh_tree(system, bits=10):
    pool = build_octree_vectorized(system.x, bits=bits)
    compute_multipoles_vectorized(pool, system.x, system.m)
    return pool


class TestCorrectness:
    def test_theta_zero_recovers_exact_forces(self, small_cloud, soft_gravity):
        """theta = 0 never accepts an internal node, so the DFS reaches
        every leaf: exact pairwise summation."""
        pool = bh_tree(small_cloud)
        acc = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                   soft_gravity, theta=0.0)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m, soft_gravity)
        assert np.allclose(acc, ref, rtol=1e-9, atol=1e-12)

    def test_batch_matches_scalar_walker(self, small_cloud, soft_gravity):
        """Lockstep and per-body walkers are the same traversal."""
        pool = bh_tree(small_cloud)
        a = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                 soft_gravity, theta=0.5)
        b = scalar_walk(octree_tree_view(pool), small_cloud.x, small_cloud.m,
                        soft_gravity, theta=0.5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("softening", [0.0, 0.2])
    def test_batch_matches_scalar_bucket_leaves(self, order, softening):
        """Four coincident bodies per point at ``bits=4`` fill bucket
        leaves, every 17th massless: deferred bucket expansion and the
        quadrupole term match the per-body oracle bit for bit."""
        rng = np.random.default_rng(7)
        x = np.repeat(rng.random((64, 3)), 4, axis=0)
        m = rng.random(256) + 0.1
        m[::17] = 0.0
        params = GravityParams(softening=softening)
        pool = build_octree_vectorized(x, bits=4)
        compute_multipoles_vectorized(pool, x, m, order=order)
        view = octree_tree_view(pool)
        assert np.count_nonzero(view.klass == KLASS_EXACT) > 30
        a = octree_accelerations(pool, x, m, params, theta=0.5)
        assert np.array_equal(a, scalar_walk(view, x, m, params, theta=0.5))

    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    def test_approximation_error_bounded(self, small_cloud, soft_gravity, theta):
        pool = bh_tree(small_cloud)
        acc = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                   soft_gravity, theta=theta)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m, soft_gravity)
        rel = np.abs(acc - ref).max() / np.abs(ref).max()
        assert rel < 0.12 * theta + 1e-9

    def test_error_monotone_in_theta(self, small_cloud, soft_gravity):
        """Larger opening angle -> coarser approximation (on average)."""
        pool = bh_tree(small_cloud)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m, soft_gravity)
        errs = []
        for theta in (0.1, 0.4, 0.9):
            acc = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                       soft_gravity, theta=theta)
            errs.append(np.sqrt(((acc - ref) ** 2).sum()))
        assert errs[0] <= errs[1] <= errs[2]

    def test_work_decreases_with_theta(self, small_cloud, soft_gravity):
        steps = []
        for theta in (0.0, 0.5, 1.0):
            pool = bh_tree(small_cloud)
            ctx = ExecutionContext()
            octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                 soft_gravity, theta=theta, ctx=ctx)
            steps.append(ctx.counters.traversal_steps)
        assert steps[0] > steps[1] > steps[2]

    def test_zero_softening_finite(self, small_cloud):
        pool = bh_tree(small_cloud)
        acc = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                   GravityParams(), theta=0.5)
        assert np.all(np.isfinite(acc))

    def test_bucket_leaves_exact(self):
        """Coincident bodies (bucket leaf) interact exactly, excluding
        self-interaction."""
        x = np.vstack([np.full((3, 3), 0.25), [[0.9, 0.9, 0.9]]])
        m = np.array([1.0, 2.0, 3.0, 4.0])
        params = GravityParams(softening=1e-2)
        pool = build_octree_vectorized(x, bits=3)
        compute_multipoles_vectorized(pool, x, m)
        acc = octree_accelerations(pool, x, m, params, theta=0.0)
        ref = pairwise_accelerations(x, m, params)
        assert np.allclose(acc, ref, rtol=1e-10)

    def test_two_bodies_newton_third_law(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = np.array([2.0, 3.0])
        pool = build_octree_vectorized(x)
        compute_multipoles_vectorized(pool, x, m)
        acc = octree_accelerations(pool, x, m, GravityParams(), theta=0.5)
        # F01 = -F10  =>  m0*a0 = -m1*a1
        assert np.allclose(m[0] * acc[0], -m[1] * acc[1], rtol=1e-12)
        assert acc[0, 0] == pytest.approx(3.0)   # G m1 / r^2
        assert acc[1, 0] == pytest.approx(-2.0)

    def test_empty_system(self):
        pool = build_octree_vectorized(np.zeros((0, 3)))
        compute_multipoles_vectorized(pool, np.zeros((0, 3)), np.zeros(0))
        acc = octree_accelerations(pool, np.zeros((0, 3)), np.zeros(0))
        assert acc.shape == (0, 3)

    def test_requires_multipoles(self, small_cloud):
        pool = build_octree_vectorized(small_cloud.x)
        with pytest.raises(ValueError):
            octree_accelerations(pool, small_cloud.x, small_cloud.m)

    def test_2d(self, cloud_2d, soft_gravity):
        pool = build_octree_vectorized(cloud_2d.x, bits=10)
        compute_multipoles_vectorized(pool, cloud_2d.x, cloud_2d.m)
        acc = octree_accelerations(pool, cloud_2d.x, cloud_2d.m,
                                   soft_gravity, theta=0.0)
        ref = pairwise_accelerations(cloud_2d.x, cloud_2d.m, soft_gravity)
        assert np.allclose(acc, ref, rtol=1e-9)


class TestAccounting:
    def test_traversal_stats(self, small_cloud, soft_gravity):
        pool = bh_tree(small_cloud)
        ctx = ExecutionContext()
        octree_accelerations(pool, small_cloud.x, small_cloud.m,
                             soft_gravity, theta=0.5, ctx=ctx, simt_width=8)
        c = ctx.counters
        assert c.traversal_steps > 0
        assert c.traversal_steps_max >= c.traversal_steps / small_cloud.n
        assert c.warp_traversal_steps >= c.traversal_steps  # divergence >= 1
        assert c.flops > 0 and c.special_flops > 0
        assert c.bytes_irregular > 0

    def test_no_divergence_when_width_one(self, small_cloud, soft_gravity):
        pool = bh_tree(small_cloud)
        ctx = ExecutionContext()
        octree_accelerations(pool, small_cloud.x, small_cloud.m,
                             soft_gravity, theta=0.5, ctx=ctx, simt_width=1)
        c = ctx.counters
        assert c.warp_traversal_steps == c.traversal_steps
