"""Tests for the quadrupole extension (paper: "the algorithms described
here extend to multipoles")."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_accelerations, bvh_tree_view
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_accelerations, octree_tree_view
from repro.octree.multipoles import (
    compute_multipoles_concurrent,
    compute_multipoles_vectorized,
)
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.physics.multipole import (
    combine_quadrupoles,
    exact_cluster_accel,
    quadrupole_accel,
    quadrupole_of_points,
)
from repro.workloads import galaxy_collision
from tests.walk_oracle import scalar_walk


class TestTensorMath:
    def test_traceless(self, rng):
        x = rng.random((40, 3))
        m = rng.random(40) + 0.1
        com = (m[:, None] * x).sum(0) / m.sum()
        q = quadrupole_of_points(x, m, com)
        assert abs(np.trace(q)) < 1e-12

    def test_symmetric(self, rng):
        x = rng.random((40, 3))
        m = rng.random(40) + 0.1
        q = quadrupole_of_points(x, m, x.mean(0))
        assert np.allclose(q, q.T)

    def test_point_has_zero_quadrupole(self):
        x = np.array([[0.3, 0.4, 0.5]])
        q = quadrupole_of_points(x, np.array([2.0]), x[0])
        assert np.allclose(q, 0.0)

    def test_parallel_axis_combination_exact(self, rng):
        """Combining children's tensors about the parent com equals the
        direct tensor of all points — for any grouping."""
        x = rng.random((60, 3))
        m = rng.random(60) + 0.1
        com = (m[:, None] * x).sum(0) / m.sum()
        direct = quadrupole_of_points(x, m, com)
        for split in (10, 30, 50):
            groups = [(x[:split], m[:split]), (x[split:], m[split:])]
            coms = np.array([(mm[:, None] * xx).sum(0) / mm.sum() for xx, mm in groups])
            qs = np.array([quadrupole_of_points(xx, mm, cc)
                           for (xx, mm), cc in zip(groups, coms)])
            ms = np.array([mm.sum() for _, mm in groups])
            combined = combine_quadrupoles(qs[None], ms[None], coms[None], com[None])[0]
            assert np.allclose(combined, direct, atol=1e-12)

    def test_zero_mass_children_ignored(self):
        q = np.zeros((1, 2, 3, 3))
        mass = np.array([[1.0, 0.0]])
        coms = np.array([[[1.0, 0, 0], [5.0, 5, 5]]])  # empty child far away
        parent = np.array([[1.0, 0, 0]])
        out = combine_quadrupoles(q, mass, coms, parent)
        assert np.allclose(out, 0.0)

    @given(st.integers(0, 2**32 - 1), st.floats(2.0, 50.0))
    @example(seed=7654, dist=2.0)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_expansion_converges_quadratically_better(self, seed, dist):
        """Property: at distance R from a cluster of extent b, the
        quadrupole expansion error obeys the third-order remainder
        bound M/R^2 * sum_{n>=3} (n+1) t^n, t = b/R (from
        |grad(P_n/r^{n+1})| <= (n+1)/r^{n+2}).  "Quadrupole error <=
        monopole error" pointwise is not a theorem (seed=7654, dist=2
        breaks it)."""
        rng = np.random.default_rng(seed)
        x = rng.random((30, 3)) * 0.3
        m = rng.random(30) + 0.1
        com = (m[:, None] * x).sum(0) / m.sum()
        q = quadrupole_of_points(x, m, com)
        target = com + dist * np.array([0.6, -0.64, 0.48])
        exact = exact_cluster_accel(target, x, m)
        dvec = com - target
        r2 = float(dvec @ dvec)
        mono = m.sum() * r2**-1.5 * dvec
        with_q = mono + quadrupole_accel(dvec[None], np.array([r2]), q[None], 1.0)[0]
        e_quad = np.linalg.norm(with_q - exact)
        t = np.linalg.norm(x - com, axis=1).max() / np.sqrt(r2)
        bound = m.sum() / r2 * (1.0 / (1.0 - t) ** 2 - 1.0 - 2.0 * t - 3.0 * t * t)
        assert e_quad <= bound

    def test_quadrupole_accel_zero_distance_guard(self):
        out = quadrupole_accel(np.zeros((1, 3)), np.zeros(1), np.ones((1, 3, 3)), 1.0)
        assert np.allclose(out, 0.0)


@pytest.fixture(scope="module")
def workload():
    system = galaxy_collision(400, seed=3)
    params = GravityParams(softening=0.05)
    ref = pairwise_accelerations(system.x, system.m, params)
    return system, params, ref


@pytest.fixture(scope="module")
def small_workload():
    """N=256: small enough for the per-body scalar oracle."""
    return galaxy_collision(256, seed=3), GravityParams(softening=0.05)


class TestOctreeOrder2:
    def test_improves_accuracy_at_fixed_theta(self, workload):
        system, params, ref = workload
        pool = build_octree_vectorized(system.x)
        errs = {}
        for order in (1, 2):
            compute_multipoles_vectorized(pool, system.x, system.m, order=order)
            acc = octree_accelerations(pool, system.x, system.m, params, theta=0.6)
            errs[order] = np.abs(acc - ref).max()
        assert errs[2] < 0.6 * errs[1]

    def test_batch_matches_scalar(self, small_workload):
        system, params = small_workload
        pool = build_octree_vectorized(system.x)
        compute_multipoles_vectorized(pool, system.x, system.m, order=2)
        a = octree_accelerations(pool, system.x, system.m, params, theta=0.5)
        b = scalar_walk(octree_tree_view(pool), system.x, system.m, params,
                        theta=0.5)
        assert np.array_equal(a, b)

    def test_concurrent_reduction_matches(self, workload):
        system, _, _ = workload
        pool = build_octree_vectorized(system.x, bits=8)
        compute_multipoles_vectorized(pool, system.x, system.m, order=2)
        qv = pool.quad.copy()
        compute_multipoles_concurrent(pool, system.x, system.m, order=2)
        assert np.allclose(pool.quad, qv, atol=1e-12)

    def test_theta_zero_unchanged(self, workload):
        """With theta=0 every interaction is a leaf: quadrupoles never
        fire and the result equals the exact sum."""
        system, params, ref = workload
        pool = build_octree_vectorized(system.x)
        compute_multipoles_vectorized(pool, system.x, system.m, order=2)
        acc = octree_accelerations(pool, system.x, system.m, params, theta=0.0)
        assert np.allclose(acc, ref, rtol=1e-9)

    def test_root_quadrupole_is_global(self, workload):
        system, _, _ = workload
        pool = build_octree_vectorized(system.x)
        compute_multipoles_vectorized(pool, system.x, system.m, order=2)
        direct = quadrupole_of_points(system.x, system.m, pool.com[0])
        assert np.allclose(pool.quad[0], direct, atol=1e-9)

    def test_order2_counts_more_work(self, workload, ctx):
        from repro.stdpar.context import ExecutionContext

        system, params, _ = workload
        pool = build_octree_vectorized(system.x)
        flops = {}
        for order in (1, 2):
            c = ExecutionContext()
            compute_multipoles_vectorized(pool, system.x, system.m, order=order)
            octree_accelerations(pool, system.x, system.m, params, theta=0.5, ctx=c)
            flops[order] = c.counters.flops
        assert flops[2] > flops[1]

    def test_2d_rejected(self, cloud_2d):
        pool = build_octree_vectorized(cloud_2d.x)
        with pytest.raises(ValueError):
            compute_multipoles_vectorized(pool, cloud_2d.x, cloud_2d.m, order=2)

    def test_bad_order(self, workload):
        system, _, _ = workload
        pool = build_octree_vectorized(system.x)
        with pytest.raises(ValueError):
            compute_multipoles_vectorized(pool, system.x, system.m, order=3)


class TestBVHOrder2:
    def test_improves_accuracy(self, workload):
        system, params, ref = workload
        errs = {}
        for order in (1, 2):
            bvh = build_bvh(system.x, system.m, order=order)
            acc = bvh_accelerations(bvh, params, theta=0.6)
            errs[order] = np.abs(acc - ref).max()
        assert errs[2] < 0.6 * errs[1]

    def test_batch_matches_scalar(self, small_workload):
        system, params = small_workload
        bvh = build_bvh(system.x, system.m, order=2)
        a = bvh_accelerations(bvh, params, theta=0.5)
        b = scalar_walk(bvh_tree_view(bvh), system.x, system.m, params,
                        theta=0.5)
        assert np.array_equal(a, b)

    def test_root_quadrupole_is_global(self, workload):
        system, _, _ = workload
        bvh = build_bvh(system.x, system.m, order=2)
        direct = quadrupole_of_points(system.x, system.m, bvh.com[0])
        assert np.allclose(bvh.quad[0], direct, atol=1e-9)

    def test_monopole_build_has_no_quad(self, workload):
        system, _, _ = workload
        assert build_bvh(system.x, system.m).quad is None

    def test_still_atomics_free(self, workload, ctx):
        system, _, _ = workload
        build_bvh(system.x, system.m, order=2, ctx=ctx)
        assert ctx.counters.atomic_ops == 0


class TestSimulationOrder2:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(multipole_order=3)

    @pytest.mark.parametrize("alg", ["octree", "bvh"])
    def test_full_pipeline_order2(self, alg):
        params = GravityParams(softening=0.05)
        base = galaxy_collision(200, seed=4)
        finals = {}
        for order in (1, 2):
            s = base.copy()
            cfg = SimulationConfig(algorithm=alg, theta=0.7, dt=1e-2,
                                   gravity=params, multipole_order=order)
            Simulation(s, cfg).run(5)
            finals[order] = s.x
        ref = base.copy()
        Simulation(ref, SimulationConfig(algorithm="all-pairs", dt=1e-2,
                                         gravity=params)).run(5)
        e1 = np.abs(finals[1] - ref.x).max()
        e2 = np.abs(finals[2] - ref.x).max()
        assert e2 < e1  # order 2 tracks the exact trajectory closer
