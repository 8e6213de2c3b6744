"""Tests for the BVH force traversal (paper Section IV-B step 3)."""

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_accelerations, bvh_tree_view
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_accelerations
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.stdpar.context import ExecutionContext
from tests.walk_oracle import scalar_walk


class TestCorrectness:
    def test_theta_zero_exact(self, small_cloud, soft_gravity):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        acc = bvh_accelerations(bvh, soft_gravity, theta=0.0)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m, soft_gravity)
        assert np.allclose(acc, ref, rtol=1e-9, atol=1e-12)

    def test_batch_matches_scalar(self, small_cloud, soft_gravity):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        a = bvh_accelerations(bvh, soft_gravity, theta=0.5)
        b = scalar_walk(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                        soft_gravity, theta=0.5)
        assert np.array_equal(a, b)

    def test_results_in_caller_order(self, small_cloud, soft_gravity):
        """The Hilbert permutation must be invisible to the caller."""
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        acc = bvh_accelerations(bvh, soft_gravity, theta=0.0)
        for i in (0, 7, small_cloud.n - 1):
            ref_i = pairwise_accelerations(
                small_cloud.x, small_cloud.m, soft_gravity, targets=np.array([i])
            )[0]
            assert np.allclose(acc[i], ref_i, rtol=1e-9)

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_error_bounded(self, small_cloud, soft_gravity, theta):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        acc = bvh_accelerations(bvh, soft_gravity, theta=theta)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m, soft_gravity)
        assert np.abs(acc - ref).max() / np.abs(ref).max() < 0.25 * theta

    def test_accuracy_differs_from_octree_at_same_theta(self, small_cloud, soft_gravity):
        """End of Section IV-B: the distance threshold reads differently
        for elongated/overlapping BVH boxes, so accuracy differs for the
        same theta."""
        theta = 0.5
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        pool = build_octree_vectorized(small_cloud.x)
        compute_multipoles_vectorized(pool, small_cloud.x, small_cloud.m)
        a_bvh = bvh_accelerations(bvh, soft_gravity, theta=theta)
        a_oct = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                     soft_gravity, theta=theta)
        assert not np.allclose(a_bvh, a_oct, rtol=1e-6)

    def test_non_power_of_two_sizes(self, rng, soft_gravity):
        for n in (3, 5, 17, 100):
            x = rng.random((n, 3))
            m = np.ones(n)
            bvh = build_bvh(x, m)
            acc = bvh_accelerations(bvh, soft_gravity, theta=0.0)
            ref = pairwise_accelerations(x, m, soft_gravity)
            assert np.allclose(acc, ref, rtol=1e-9), n

    def test_single_body_zero_force(self):
        bvh = build_bvh(np.array([[0.5, 0.5, 0.5]]), np.array([1.0]))
        acc = bvh_accelerations(bvh, GravityParams())
        assert np.array_equal(acc, np.zeros((1, 3)))

    def test_empty_system(self):
        bvh = build_bvh(np.zeros((0, 3)), np.zeros(0))
        assert bvh_accelerations(bvh, GravityParams()).shape == (0, 3)

    def test_zero_softening_finite(self, small_cloud):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        acc = bvh_accelerations(bvh, GravityParams(), theta=0.5)
        assert np.all(np.isfinite(acc))

    def test_2d(self, cloud_2d, soft_gravity):
        bvh = build_bvh(cloud_2d.x, cloud_2d.m)
        acc = bvh_accelerations(bvh, soft_gravity, theta=0.0)
        ref = pairwise_accelerations(cloud_2d.x, cloud_2d.m, soft_gravity)
        assert np.allclose(acc, ref, rtol=1e-9)


class TestTraversalBehaviour:
    def test_curve_order_reduces_warp_divergence(self, rng, soft_gravity):
        """Curve-adjacent bodies traverse nearly identical paths, so
        launching threads in Hilbert order has lower SIMT divergence
        than launching them in arbitrary order.  Measured on the octree
        walker, whose tree is independent of the thread-to-body
        assignment (isolating the ordering effect)."""
        from repro.bvh.build import hilbert_sort_permutation
        from repro.geometry.aabb import compute_bounding_box

        x = np.vstack([
            rng.normal(0, 1, (500, 3)),
            rng.normal(6, 1, (500, 3)),
        ])
        m = np.ones(1000)
        pool = build_octree_vectorized(x)
        compute_multipoles_vectorized(pool, x, m)
        perm = hilbert_sort_permutation(x, compute_bounding_box(x))

        def divergence(order):
            ctx = ExecutionContext()
            octree_accelerations(pool, x[order], m[order], soft_gravity,
                                 theta=0.5, ctx=ctx, simt_width=32)
            return ctx.counters.warp_traversal_steps / ctx.counters.traversal_steps

        assert divergence(perm) < divergence(np.arange(1000))

    def test_work_scales_sublinearly(self, rng, soft_gravity):
        """Traversal steps per body grow ~log N, not ~N."""
        steps_per_body = []
        for n in (256, 2048):
            x = rng.random((n, 3))
            bvh = build_bvh(x, np.ones(n))
            ctx = ExecutionContext()
            bvh_accelerations(bvh, soft_gravity, theta=0.5, ctx=ctx)
            steps_per_body.append(ctx.counters.traversal_steps / n)
        assert steps_per_body[1] < 4 * steps_per_body[0]

    def test_empty_subtrees_skipped(self, rng, soft_gravity):
        """Padding nodes contribute no visits below themselves."""
        n = 513  # pads to 1024 leaves: a nearly-empty right half
        x = rng.random((n, 3))
        bvh = build_bvh(x, np.ones(n))
        ctx = ExecutionContext()
        bvh_accelerations(bvh, soft_gravity, theta=0.0, ctx=ctx)
        # full opening visits at most nodes-with-content per body
        nonempty = int((bvh.count > 0).sum())
        assert ctx.counters.traversal_steps <= n * (nonempty + bvh.layout.n_levels)
