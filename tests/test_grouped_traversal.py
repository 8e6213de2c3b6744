"""Group-coherent traversal: exactness, accuracy, caching, accounting.

The contracts under test:

* at ``group_size=1`` (monopole order) the grouped path is *bit
  identical* to the per-body lockstep walk, for both tree strategies;
* the group MAC is conservative — every node a group accepts would be
  accepted by every member body individually — so grouped accelerations
  stay within the same all-pairs error bound the lockstep kernels obey;
* interaction lists live in the structure-cache entry and expire with
  it, and the counters split list-build from list-eval work.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvh.build import build_bvh
from repro.bvh.force import (
    bvh_accelerations,
    bvh_accelerations_scalar,
    bvh_tree_view,
)
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.machine.catalog import get_device
from repro.machine.costmodel import CostModel
from repro.machine.counters import Counters
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_accelerations, octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.accuracy import relative_l2_error
from repro.physics.bodies import BodySystem
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.stdpar.context import ExecutionContext
from repro.traversal import (
    build_interaction_lists,
    hilbert_body_order,
    make_groups,
    tree_accelerations,
)
from repro.workloads import galaxy_collision

THETAS = [0.25, 0.5, 1.0]


def random_system(seed: int, n: int, clustered: bool) -> BodySystem:
    rng = np.random.default_rng(seed)
    if clustered:
        centers = rng.random((4, 3)) * 4.0
        x = (centers[rng.integers(0, 4, n)]
             + 0.3 * rng.standard_normal((n, 3)))
    else:
        x = rng.random((n, 3))
    m = rng.random(n) + 0.05
    return BodySystem(x, np.zeros((n, 3)), m)


def _octree(system, *, order=1, bits=None):
    pool = build_octree_vectorized(system.x, bits=bits)
    compute_multipoles_vectorized(pool, system.x, system.m, None, order=order)
    return pool


class TestGroups:
    def test_partition_and_boxes(self, small_cloud):
        x = np.sort(small_cloud.x, axis=0)  # any order works
        groups = make_groups(x, 16)
        assert groups.n_bodies == x.shape[0]
        assert groups.offsets[0] == 0 and groups.offsets[-1] == x.shape[0]
        for g in range(groups.n_groups):
            xg = x[groups.members(g)]
            assert np.array_equal(groups.lo[g], xg.min(axis=0))
            assert np.array_equal(groups.hi[g], xg.max(axis=0))

    def test_group_size_one_boxes_degenerate(self, tiny_cloud):
        groups = make_groups(tiny_cloud.x, 1)
        assert groups.n_groups == tiny_cloud.x.shape[0]
        assert groups.max_group_size == 1
        assert np.array_equal(groups.lo, tiny_cloud.x)
        assert np.array_equal(groups.hi, tiny_cloud.x)

    def test_empty_and_invalid(self):
        groups = make_groups(np.empty((0, 3)), 8)
        assert groups.n_groups == 0 and groups.max_group_size == 0
        with pytest.raises(ValueError):
            make_groups(np.zeros((4, 3)), 0)


class TestBitExactAtGroupSizeOne:
    @pytest.mark.parametrize("theta", THETAS)
    def test_octree(self, small_cloud, soft_gravity, theta):
        pool = _octree(small_cloud)
        a = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                 soft_gravity, theta=theta)
        b = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                               small_cloud.m, soft_gravity, theta=theta,
                               group_size=1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("theta", THETAS)
    def test_bvh(self, small_cloud, soft_gravity, theta):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        a = bvh_accelerations(bvh, soft_gravity, theta=theta)
        b = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                               small_cloud.m, soft_gravity, theta=theta,
                               group_size=1)
        assert np.array_equal(a, b)

    def test_octree_2d(self, cloud_2d, soft_gravity):
        pool = _octree(cloud_2d)
        a = octree_accelerations(pool, cloud_2d.x, cloud_2d.m,
                                 soft_gravity, theta=0.5)
        b = tree_accelerations(octree_tree_view(pool), cloud_2d.x, cloud_2d.m,
                               soft_gravity, theta=0.5, group_size=1)
        assert np.array_equal(a, b)

    def test_octree_bucket_leaves(self, soft_gravity):
        """Coarse grid forces multi-body buckets; expansion stays exact."""
        rng = np.random.default_rng(7)
        x = np.repeat(rng.random((20, 3)), 4, axis=0)
        x += 1e-9 * rng.standard_normal(x.shape)
        m = rng.random(x.shape[0]) + 0.1
        pool = build_octree_vectorized(x, bits=3)
        compute_multipoles_vectorized(pool, x, m, None)
        a = octree_accelerations(pool, x, m, soft_gravity, theta=0.5)
        b = tree_accelerations(octree_tree_view(pool), x, m, soft_gravity,
                               theta=0.5, group_size=1)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 120),
           st.booleans(), st.sampled_from(THETAS))
    @settings(max_examples=20, deadline=None)
    def test_property_octree(self, seed, n, clustered, theta):
        s = random_system(seed, n, clustered)
        params = GravityParams(softening=1e-3)
        pool = _octree(s, bits=12)
        a = octree_accelerations(pool, s.x, s.m, params, theta=theta)
        b = tree_accelerations(octree_tree_view(pool), s.x, s.m, params,
                               theta=theta, group_size=1)
        assert np.array_equal(a, b)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 120),
           st.booleans(), st.sampled_from(THETAS))
    @settings(max_examples=20, deadline=None)
    def test_property_bvh(self, seed, n, clustered, theta):
        s = random_system(seed, n, clustered)
        params = GravityParams(softening=1e-3)
        bvh = build_bvh(s.x, s.m)
        a = bvh_accelerations(bvh, params, theta=theta)
        b = tree_accelerations(bvh_tree_view(bvh), s.x, s.m, params,
                               theta=theta, group_size=1)
        assert np.array_equal(a, b)


class TestAccuracy:
    """Grouped results obey the same all-pairs bounds as lockstep."""

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("group_size", [4, 32])
    def test_octree_within_bound(self, small_cloud, soft_gravity,
                                 theta, group_size):
        pool = _octree(small_cloud)
        acc = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                                 small_cloud.m, soft_gravity, theta=theta,
                                 group_size=group_size)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m,
                                     soft_gravity)
        assert np.abs(acc - ref).max() / np.abs(ref).max() < 0.12 * theta + 1e-9

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("group_size", [4, 32])
    def test_bvh_within_bound(self, small_cloud, soft_gravity,
                              theta, group_size):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        acc = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                 small_cloud.m, soft_gravity, theta=theta,
                                 group_size=group_size)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m,
                                     soft_gravity)
        assert np.abs(acc - ref).max() / np.abs(ref).max() < 0.25 * theta

    def test_grouped_no_worse_than_lockstep(self, small_cloud, soft_gravity):
        """Conservative MAC only opens more nodes than per-body would."""
        pool = _octree(small_cloud)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m,
                                     soft_gravity)
        lock = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                    soft_gravity, theta=0.5)
        grp = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                                 small_cloud.m, soft_gravity, theta=0.5,
                                 group_size=16)
        assert (relative_l2_error(grp, ref)
                <= relative_l2_error(lock, ref) + 1e-12)

    def test_conservative_mac_subset_property(self, small_cloud):
        """Every group-accepted node passes the per-body MAC for every
        member — the structural fact behind the error-bound claims."""
        theta = 0.5
        pool = _octree(small_cloud)
        view = octree_tree_view(pool)
        perm = hilbert_body_order(small_cloud.x, pool.box)
        xs = small_cloud.x[perm]
        groups = make_groups(xs, 16)
        lists = build_interaction_lists(view, groups, theta)
        assert lists.n_approx > 0
        for g in range(groups.n_groups):
            nodes = lists.approx_nodes(g)
            if nodes.size == 0:
                continue
            xg = xs[groups.members(g)]
            d = view.com[nodes][None, :, :] - xg[:, None, :]
            r2 = np.einsum("bkd,bkd->bk", d, d)
            assert np.all(view.size2[nodes][None, :] < theta**2 * r2)

    def test_tile_matches_gemm(self, small_cloud, soft_gravity):
        pool = _octree(small_cloud)
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        for tile, gemm in [
            (tree_accelerations(octree_tree_view(pool), small_cloud.x,
                                small_cloud.m, soft_gravity, group_size=16,
                                eval_mode="tile"),
             tree_accelerations(octree_tree_view(pool), small_cloud.x,
                                small_cloud.m, soft_gravity, group_size=16,
                                eval_mode="gemm")),
            (tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                small_cloud.m, soft_gravity, group_size=16,
                                eval_mode="tile"),
             tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                small_cloud.m, soft_gravity, group_size=16,
                                eval_mode="gemm")),
        ]:
            assert np.allclose(tile, gemm, rtol=1e-9, atol=1e-11)

    def test_quadrupole_grouped(self, small_cloud, soft_gravity):
        """Order-2 moments flow through the tile kernels too."""
        pool = _octree(small_cloud, order=2)
        lock = octree_accelerations(pool, small_cloud.x, small_cloud.m,
                                    soft_gravity, theta=0.5)
        grp1 = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                                  small_cloud.m, soft_gravity, theta=0.5,
                                  group_size=1)
        assert np.allclose(grp1, lock, rtol=1e-12, atol=1e-14)
        bvh = build_bvh(small_cloud.x, small_cloud.m, order=2)
        lockb = bvh_accelerations(bvh, soft_gravity, theta=0.5)
        grpb = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, theta=0.5,
                                  group_size=16)
        ref = pairwise_accelerations(small_cloud.x, small_cloud.m,
                                     soft_gravity)
        assert relative_l2_error(grpb, ref) < 0.25 * 0.5
        assert relative_l2_error(grpb, lockb) < 0.05


class TestCoincidentBodies:
    """Coincident bodies at ``eps2 = 0`` exert no force on each other,
    as in the all-pairs reference: a BVH node of zero extent never
    passes the MAC (its distance to a member body is a rounding
    residue), and the dense kernels give coincident body pairs exactly
    zero weight."""

    @staticmethod
    def _system(n):
        """N=4: two coincident pairs; N=256: 64 points, four bodies
        each."""
        rng = np.random.default_rng(21)
        x = np.repeat(rng.random((n // 2 if n == 4 else n // 4, 3)),
                      2 if n == 4 else 4, axis=0)
        return x, rng.random(n) + 0.1

    @pytest.mark.parametrize("n", [4, 256])
    def test_lockstep(self, n):
        x, m = self._system(n)
        ref = pairwise_accelerations(x, m)
        bvh = build_bvh(x, m)
        for walk in (bvh_accelerations, bvh_accelerations_scalar):
            assert relative_l2_error(walk(bvh, theta=0.5), ref) < 5e-2

    @pytest.mark.parametrize("eval_mode", ["tile", "flat", "gemm"])
    @pytest.mark.parametrize("traversal", ["grouped", "dual"])
    @pytest.mark.parametrize("n", [4, 256])
    def test_grouped(self, n, traversal, eval_mode):
        x, m = self._system(n)
        ref = pairwise_accelerations(x, m)
        acc = tree_accelerations(bvh_tree_view(build_bvh(x, m)), x, m,
                                 traversal=traversal, group_size=8,
                                 eval_mode=eval_mode)
        assert relative_l2_error(acc, ref) < 5e-2


class TestConfig:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert cfg.traversal == "lockstep"
        assert cfg.group_size == 32

    @pytest.mark.parametrize("bad", ["warp", "", "GROUPED"])
    def test_invalid_traversal(self, bad):
        with pytest.raises(ConfigurationError):
            SimulationConfig(traversal=bad)

    @pytest.mark.parametrize("bad", [0, -4, 2.5])
    def test_invalid_group_size(self, bad):
        with pytest.raises(ConfigurationError):
            SimulationConfig(group_size=bad)


def run_sim(alg, *, traversal="grouped", reuse=1, steps=4, n=200,
            group_size=16):
    s = galaxy_collision(n, seed=1)
    cfg = SimulationConfig(algorithm=alg, theta=0.4, dt=1e-3,
                           gravity=GravityParams(softening=0.05),
                           tree_reuse_steps=reuse, traversal=traversal,
                           group_size=group_size)
    sim = Simulation(s, cfg)
    rep = sim.run(steps)
    return s, rep, sim


class TestSimulationIntegration:
    @pytest.mark.parametrize("alg", ["octree", "bvh", "octree-2stage"])
    def test_grouped_tracks_lockstep(self, alg):
        a, _, _ = run_sim(alg, traversal="lockstep")
        b, _, _ = run_sim(alg, traversal="grouped")
        assert np.all(np.isfinite(b.x))
        # Both approximate the same dynamics at the same theta.
        assert relative_l2_error(b.x, a.x) < 1e-3

    def test_lists_cached_with_structure(self):
        _, _, sim = run_sim("octree", reuse=4)
        maint = sim._tree_cache["_maintainer"]
        assert maint.tree is not None and maint._age >= 1  # shape intact
        assert ("ilists", 0.4, 16) in maint.entry

    def test_cache_reuse_skips_list_builds(self):
        _, rep1, _ = run_sim("octree", reuse=1, steps=8)
        _, rep4, _ = run_sim("octree", reuse=4, steps=8)
        b1 = rep1.counters.steps["force"].list_build_steps
        b4 = rep4.counters.steps["force"].list_build_steps
        assert 0 < b4 < 0.5 * b1
        # eval work is the same every step, cached lists or not
        e1 = rep1.counters.steps["force"].interaction_list_size
        e4 = rep4.counters.steps["force"].interaction_list_size
        assert e1 > 0 and e4 > 0

    def test_lockstep_runs_charge_no_lists(self):
        _, rep, _ = run_sim("octree", traversal="lockstep")
        assert rep.counters.steps["force"].interaction_list_size == 0


class TestCounters:
    def test_build_vs_eval_split(self, small_cloud, soft_gravity):
        pool = _octree(small_cloud)
        cache: dict = {}
        ctx = ExecutionContext()
        tree_accelerations(octree_tree_view(pool), small_cloud.x,
                           small_cloud.m, soft_gravity, theta=0.5,
                           group_size=16, ctx=ctx, cache=cache)
        c = ctx.counters
        assert c.list_build_steps > 0
        assert c.interaction_list_size > 0
        assert c.list_eval_interactions > 0
        # Warp-synchronous walk: no divergence inflation.
        assert c.warp_traversal_steps == c.traversal_steps == c.list_build_steps
        assert c.kernel_launches == 2.0

        cached_ctx = ExecutionContext()
        tree_accelerations(octree_tree_view(pool), small_cloud.x,
                           small_cloud.m, soft_gravity, theta=0.5,
                           group_size=16, ctx=cached_ctx, cache=cache)
        cc = cached_ctx.counters
        assert cc.list_build_steps == 0
        assert cc.interaction_list_size == c.interaction_list_size
        assert cc.list_eval_interactions == c.list_eval_interactions
        assert cc.kernel_launches == 1.0

    def test_cache_entry_reused_object(self, small_cloud, soft_gravity):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        cache: dict = {}
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           soft_gravity, group_size=8, cache=cache)
        key = ("ilists", 0.5, 8)
        lists = cache[key]["lists"]
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           soft_gravity, group_size=8, cache=cache)
        assert cache[key]["lists"] is lists

    def test_costmodel_charges_list_roundtrip(self):
        base = dict(flops=1e9, bytes_read=1e8, traversal_steps=1e5,
                    warp_traversal_steps=1e5)
        model = CostModel(get_device("gh200"))
        without = model.step_time(Counters(**base))
        with_lists = model.step_time(
            Counters(**base, interaction_list_size=1e8,
                     list_build_steps=1e5, list_eval_interactions=1e9))
        assert with_lists.memory > without.memory
