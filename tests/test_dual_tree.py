"""Dual-tree traversal: exactness fallback, accuracy, caching, matrix.

The contracts under test:

* with the cell-cell branch force-disabled (``cc_mac=0``) the dual walk
  degenerates to the grouped traversal *bitwise* — same near lists,
  same accelerations — for both tree strategies and through a full
  ``Simulation`` trajectory;
* with the branch on (defaults ``cc_mac=1.5``, ``expansion_order=2``)
  the dual error vs all-pairs stays within a small constant of the
  grouped-mode bound across workloads and theta;
* the shared-MAC fast path (``mac_margin == 0``) is bit-identical to
  the reference threshold expression;
* ``mac_evals`` / ``pairs_deferred`` / ``pairs_accepted_cc`` split
  build-time from every-step work, and dual lists live in the
  structure cache;
* dual composes with ``tree_update="refit"`` (lists survive bounded
  drift, gated by the far-pair drift check) and with ``ranks>1``
  (the cell-cell walk stays inside the LET halo).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.accuracy import relative_l2_error
from repro.physics.bodies import BodySystem
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.stdpar.context import ExecutionContext
from repro.traversal import (
    hilbert_body_order,
    make_groups,
    tree_accelerations,
)
from repro.maintenance.drift import bvh_node_drift, lists_valid
from repro.traversal.dual import build_dual_lists, build_target_tree
from repro.traversal.engine import build_interaction_lists, mac_threshold2
from repro.workloads import galaxy_collision, plummer_sphere, uniform_cube

THETAS = [0.2, 0.5, 1.0]
PARAMS = GravityParams(softening=0.05)
WORKLOADS = {
    "plummer": plummer_sphere,
    "uniform": uniform_cube,
    "galaxy": galaxy_collision,
}


def _octree(x, m, *, order=1, bits=None):
    pool = build_octree_vectorized(x, bits=bits)
    compute_multipoles_vectorized(pool, x, m, None, order=order)
    return pool


def _dual_vs_grouped_bvh(system, theta, **dual_kw):
    bvh = build_bvh(system.x, system.m)
    g = tree_accelerations(bvh_tree_view(bvh), system.x, system.m, PARAMS,
                           theta=theta, group_size=16)
    d = tree_accelerations(bvh_tree_view(bvh), system.x, system.m, PARAMS,
                           traversal="dual", theta=theta, group_size=16,
                           **dual_kw)
    return g, d


# ----------------------------------------------------------------------
# Exactness: cc_mac = 0 is the grouped traversal, bitwise
# ----------------------------------------------------------------------
class TestExactFallback:
    @pytest.mark.parametrize("theta", THETAS)
    def test_bvh_bit_identical(self, small_cloud, theta):
        g, d = _dual_vs_grouped_bvh(small_cloud, theta, cc_mac=0.0)
        assert np.array_equal(g, d)

    @pytest.mark.parametrize("theta", THETAS)
    def test_octree_bit_identical(self, small_cloud, theta):
        pool = _octree(small_cloud.x, small_cloud.m)
        g = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                               small_cloud.m, PARAMS, theta=theta,
                               group_size=16)
        d = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                               small_cloud.m, PARAMS, traversal="dual",
                               theta=theta, group_size=16, cc_mac=0.0)
        assert np.array_equal(g, d)

    @pytest.mark.parametrize("kind", ["bvh", "octree"])
    def test_near_lists_identical(self, small_cloud, kind):
        """List-level check: the degenerate dual walk emits the grouped
        walk's CSR verbatim (same nodes, same order, same buckets)."""
        x = small_cloud.x
        if kind == "bvh":
            bvh = build_bvh(x, small_cloud.m)
            view = bvh_tree_view(bvh)
            xs = bvh.x_sorted
        else:
            view = octree_tree_view(_octree(x, small_cloud.m))
            xs = x[hilbert_body_order(x, view.box)]
        groups = make_groups(xs, 16)
        ref = build_interaction_lists(view, groups, 0.5)
        dual = build_dual_lists(view, build_target_tree(groups), 0.5,
                                cc_mac=0.0)
        assert dual.n_far == 0
        assert np.array_equal(dual.offsets, ref.offsets)
        assert np.array_equal(dual.nodes, ref.nodes)
        assert np.array_equal(dual.approx, ref.approx)
        assert np.array_equal(dual.exact_groups, ref.exact_groups)
        assert np.array_equal(dual.exact_nodes, ref.exact_nodes)

    @pytest.mark.parametrize("kind", ["bvh", "octree"])
    def test_leaf_level_target_tree_suffices(self, small_cloud, kind):
        """At cc_mac=0 the walk reads the target tree's leaf level and
        root only, so the grouped build skips the union sweep: same
        lists as over the full tree, the levels between left empty."""
        x = small_cloud.x
        if kind == "bvh":
            bvh = build_bvh(x, small_cloud.m)
            view = bvh_tree_view(bvh)
            xs = bvh.x_sorted
        else:
            view = octree_tree_view(_octree(x, small_cloud.m))
            xs = x[hilbert_body_order(x, view.box)]
        groups = make_groups(xs, 16)
        full = build_target_tree(groups)
        leaves = build_target_tree(groups, internal=False)
        fl = leaves.first_leaf
        assert leaves.count[0] == full.count[0] == groups.n_bodies
        assert not leaves.count[1:fl].any()
        for name in ("lo", "hi", "center", "size2", "count"):
            a, b = getattr(leaves, name), getattr(full, name)
            assert np.array_equal(a[fl:], b[fl:]), name
            assert np.array_equal(a[0], b[0]), name
        ref = build_dual_lists(view, full, 0.5, cc_mac=0.0)
        got = build_interaction_lists(view, groups, 0.5)
        assert got.tt.count[1:fl].sum() == 0
        for name in ("offsets", "nodes", "approx", "exact_groups",
                     "exact_nodes", "steps"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert got.cell_evals == ref.cell_evals

    def test_simulation_trajectory_bit_identical(self):
        """Whole-pipeline fallback: a dual run with the cc branch off
        reproduces the grouped trajectory bitwise."""
        out = {}
        for traversal, cc in [("grouped", 1.5), ("dual", 0.0)]:
            s = galaxy_collision(400, seed=2)
            cfg = SimulationConfig(algorithm="bvh", theta=0.5, dt=1e-3,
                                   gravity=PARAMS, traversal=traversal,
                                   group_size=16, cc_mac=cc)
            Simulation(s, cfg).run(4)
            out[traversal] = s.x
        assert np.array_equal(out["grouped"], out["dual"])


# ----------------------------------------------------------------------
# Accuracy: dual stays within a small constant of the grouped bound
# ----------------------------------------------------------------------
class TestAccuracy:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_error_tracks_grouped(self, workload, theta):
        s = WORKLOADS[workload](900, seed=5)
        ref = pairwise_accelerations(s.x, s.m, PARAMS)
        g, d = _dual_vs_grouped_bvh(s, theta)  # default cc_mac / order
        eg = relative_l2_error(g, ref)
        ed = relative_l2_error(d, ref)
        assert ed <= max(3.0 * eg, 1e-9)

    @pytest.mark.parametrize("theta", THETAS)
    def test_octree_error_tracks_grouped(self, theta):
        s = plummer_sphere(900, seed=5)
        pool = _octree(s.x, s.m)
        ref = pairwise_accelerations(s.x, s.m, PARAMS)
        g = tree_accelerations(octree_tree_view(pool), s.x, s.m, PARAMS,
                               theta=theta, group_size=16)
        d = tree_accelerations(octree_tree_view(pool), s.x, s.m, PARAMS,
                               traversal="dual", theta=theta, group_size=16)
        assert (relative_l2_error(d, ref)
                <= max(3.0 * relative_l2_error(g, ref), 1e-9))

    def test_higher_order_is_tighter(self):
        """Order-2 downsweep beats order-0 at the same cc_mac."""
        s = plummer_sphere(1200, seed=9)
        ref = pairwise_accelerations(s.x, s.m, PARAMS)
        errs = {}
        for order in (0, 2):
            _, d = _dual_vs_grouped_bvh(s, 0.5, cc_mac=1.5,
                                        expansion_order=order)
            errs[order] = relative_l2_error(d, ref)
        assert errs[2] < errs[0]

    def test_cc_actually_fires(self, small_cloud):
        """Defaults must exercise the far-field branch, not vacuously
        pass by never accepting a cell-cell pair."""
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        view = bvh_tree_view(bvh)
        groups = make_groups(bvh.x_sorted, 16)
        dual = build_dual_lists(view, build_target_tree(groups), 0.5,
                                cc_mac=1.5)
        assert dual.n_far > 0
        assert dual.n_approx < build_interaction_lists(
            view, groups, 0.5).n_approx


# ----------------------------------------------------------------------
# Engine micro-optimisation: margin-free MAC fast path
# ----------------------------------------------------------------------
class TestMACFastPath:
    def test_zero_margin_bit_identical(self, rng):
        """``mac_margin == 0`` must take the sqrt-free path and produce
        the plain product bitwise."""
        dmin2 = rng.random(4096) * 10.0
        for theta in THETAS:
            ref = theta * theta * dmin2
            assert np.array_equal(mac_threshold2(dmin2, theta * theta, 0.0),
                                  ref)
            assert np.array_equal(mac_threshold2(dmin2, theta * theta, -0.0),
                                  ref)

    def test_margin_shrinks_threshold(self, rng):
        dmin2 = rng.random(512) * 10.0 + 1.0
        t2 = 0.25
        assert np.all(mac_threshold2(dmin2, t2, 0.1)
                      <= mac_threshold2(dmin2, t2, 0.0))


# ----------------------------------------------------------------------
# Counters and caching
# ----------------------------------------------------------------------
class TestCountersAndCache:
    def test_build_vs_eval_split(self, small_cloud):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        cache: dict = {}
        ctx = ExecutionContext()
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           PARAMS, traversal="dual", theta=0.5, group_size=16,
                           ctx=ctx, cache=cache)
        c = ctx.counters
        assert c.mac_evals > 0
        assert c.pairs_accepted_cc > 0
        assert c.pairs_deferred > 0
        assert c.list_build_steps > 0

        cached_ctx = ExecutionContext()
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           PARAMS, traversal="dual", theta=0.5, group_size=16,
                           ctx=cached_ctx, cache=cache)
        cc = cached_ctx.counters
        # walk work is build-only; far/near interaction work recurs
        assert cc.mac_evals == 0
        assert cc.list_build_steps == 0
        assert cc.pairs_accepted_cc == c.pairs_accepted_cc
        assert cc.pairs_deferred == c.pairs_deferred

    def test_cache_key_includes_dual_knobs(self, small_cloud):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        cache: dict = {}
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           PARAMS, traversal="dual", theta=0.5, group_size=8,
                           cc_mac=1.5, expansion_order=2, cache=cache)
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           PARAMS, traversal="dual", theta=0.5, group_size=8,
                           cc_mac=1.0, expansion_order=2, cache=cache)
        assert ("lists", 0.5, 8, 1.5) in cache
        assert ("lists", 0.5, 8, 1.0) in cache

    def test_grouped_is_dual_at_cc_zero_in_the_cache(self, small_cloud):
        """One cache key: grouped lists serve a ``cc_mac=0`` dual call
        (no walk charged), with the same forces and eval counters."""
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        cache: dict = {}
        out = {}
        for traversal in ("grouped", "dual"):
            ctx = ExecutionContext()
            out[traversal] = tree_accelerations(
                bvh_tree_view(bvh), small_cloud.x, small_cloud.m, PARAMS,
                traversal=traversal, theta=0.5, group_size=8, cc_mac=0.0,
                ctx=ctx, cache=cache)
            out[traversal + "_c"] = ctx.counters
        assert list(cache) == [("lists", 0.5, 8, 0.0)]
        assert np.array_equal(out["grouped"], out["dual"])
        assert out["grouped_c"].mac_evals > 0
        assert out["dual_c"].mac_evals == 0
        assert (out["dual_c"].pairs_deferred
                == out["grouped_c"].pairs_deferred)

    def test_grouped_mode_charges_no_cc_pairs(self, small_cloud):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        ctx = ExecutionContext()
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           PARAMS, theta=0.5, group_size=16, ctx=ctx)
        assert ctx.counters.mac_evals > 0
        assert ctx.counters.pairs_deferred > 0
        assert ctx.counters.pairs_accepted_cc == 0

    def test_profile_counters_reach_report(self):
        for traversal in ("lockstep", "grouped", "dual"):
            s = galaxy_collision(300, seed=1)
            cfg = SimulationConfig(algorithm="bvh", theta=0.5, dt=1e-3,
                                   gravity=PARAMS, traversal=traversal)
            rep = Simulation(s, cfg).run(2)
            c = rep.counters.steps["force"]
            assert c.mac_evals > 0
            if traversal == "dual":
                assert c.pairs_accepted_cc > 0
            else:
                assert c.pairs_accepted_cc == 0


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_dual_accepted_with_defaults(self):
        cfg = SimulationConfig(traversal="dual")
        assert cfg.cc_mac == 1.5
        assert cfg.expansion_order == 2

    @pytest.mark.parametrize("bad", [-0.5, "wide", None])
    def test_invalid_cc_mac(self, bad):
        with pytest.raises(ConfigurationError):
            SimulationConfig(traversal="dual", cc_mac=bad)

    @pytest.mark.parametrize("bad", [-1, 3, 1.5])
    def test_invalid_expansion_order(self, bad):
        with pytest.raises(ConfigurationError):
            SimulationConfig(traversal="dual", expansion_order=bad)


# ----------------------------------------------------------------------
# Matrix round-trip: refit maintenance and multi-rank
# ----------------------------------------------------------------------
class TestRefitComposition:
    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_refit_holds_theta_bound(self, alg):
        """Dual + refit: after maintained steps, forces stay within the
        cached-list theta bound vs a fresh rebuild at the same state."""
        s = galaxy_collision(400, seed=0)
        cfg = SimulationConfig(algorithm=alg, theta=0.5, dt=1e-3,
                               gravity=PARAMS, traversal="dual",
                               group_size=16, tree_update="refit")
        sim = Simulation(s, cfg)
        sim.run(6)
        assert sim._tree_cache["_maintainer"].counts["refit"] >= 1
        acc = sim.evaluate_forces()
        fresh = Simulation(
            BodySystem(s.x.copy(), s.v.copy(), s.m.copy()),
            SimulationConfig(algorithm=alg, theta=0.5, dt=1e-3,
                            gravity=PARAMS, traversal="dual",
                            group_size=16, tree_update="rebuild"))
        assert relative_l2_error(acc, fresh.evaluate_forces()) < 0.06

    def test_refit_reuses_dual_lists(self):
        """Refit steps skip the pair walk: mac_evals are charged on the
        epoch build only, while cc-pair work recurs every step."""
        s = galaxy_collision(500, seed=3)
        cfg = SimulationConfig(algorithm="bvh", theta=0.5, dt=1e-4,
                               gravity=PARAMS, traversal="dual",
                               group_size=16, tree_update="refit")
        sim = Simulation(s, cfg)
        rep = sim.run(6)
        c = rep.counters.steps["force"]
        maint = sim._tree_cache["_maintainer"]
        assert maint.counts["refit"] >= 1
        assert c.pairs_accepted_cc > 0
        # fewer walk charges than a rebuild-every-step run
        s2 = galaxy_collision(500, seed=3)
        cfg2 = SimulationConfig(algorithm="bvh", theta=0.5, dt=1e-4,
                                gravity=PARAMS, traversal="dual",
                                group_size=16, tree_update="rebuild")
        rep2 = Simulation(s2, cfg2).run(6)
        assert c.mac_evals < rep2.counters.steps["force"].mac_evals

    def test_far_pair_gate_rejects_large_drift(self, small_cloud):
        """The drift gate accepts zero drift and rejects drift beyond
        the margin."""
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        view = bvh_tree_view(bvh)
        groups = make_groups(bvh.x_sorted, 16)
        tt = build_target_tree(groups)
        dual = build_dual_lists(view, tt, 0.5, cc_mac=1.5, mac_margin=0.05)
        assert dual.n_far > 0
        zero = np.zeros(groups.n_groups)
        node_zero = np.zeros(view.com.shape[0])
        assert lists_valid(dual, zero, node_zero, size_factor=1.0)
        big = np.full(groups.n_groups, 1.0)
        assert not lists_valid(dual, big, node_zero, size_factor=1.0)

    def test_target_drift_is_subtree_max(self, small_cloud):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        groups = make_groups(bvh.x_sorted, 16)
        tt = build_target_tree(groups)
        rng = np.random.default_rng(0)
        grp = rng.random(groups.n_groups)
        td = bvh_node_drift(tt.layout, grp)
        assert td[0] == pytest.approx(grp.max())
        fl = tt.first_leaf
        assert np.allclose(td[fl:fl + groups.n_groups], grp)


class TestDistributedComposition:
    def test_ranks_within_theta_bound(self):
        s = galaxy_collision(600, seed=3)
        exact = pairwise_accelerations(s.x, s.m)

        def forces(**kw):
            sys2 = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
            sim = Simulation(sys2, SimulationConfig(
                algorithm="bvh", theta=0.5, traversal="dual", **kw))
            return sim.evaluate_forces(), sim

        a1, _ = forces()
        aK, sim = forces(ranks=2)
        e1 = relative_l2_error(a1, exact)
        eK = relative_l2_error(aK, exact)
        assert eK < max(3.0 * e1, 0.05)
        assert relative_l2_error(aK, a1) < 0.05
        # the cc branch ran on the remote contributions too
        rep = sim.distributed.last_report
        assert sum(sc.step("force").pairs_accepted_cc
                   for sc in rep.rank_counters) > 0

    def test_ranks_trajectory_tracks_single_rank(self):
        s = galaxy_collision(300, seed=4)
        sysA = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
        sysB = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
        Simulation(sysA, SimulationConfig(algorithm="bvh",
                                          traversal="dual")).run(4)
        Simulation(sysB, SimulationConfig(algorithm="bvh", traversal="dual",
                                          ranks=2)).run(4)
        assert relative_l2_error(sysB.x, sysA.x) < 1e-2


# ----------------------------------------------------------------------
# Simulation integration
# ----------------------------------------------------------------------
class TestSimulationIntegration:
    @pytest.mark.parametrize("alg", ["octree", "bvh", "octree-2stage"])
    def test_dual_tracks_grouped(self, alg):
        out = {}
        for traversal in ("grouped", "dual"):
            s = galaxy_collision(300, seed=1)
            cfg = SimulationConfig(algorithm=alg, theta=0.4, dt=1e-3,
                                   gravity=PARAMS, traversal=traversal,
                                   group_size=16)
            Simulation(s, cfg).run(4)
            out[traversal] = s.x
        assert np.all(np.isfinite(out["dual"]))
        assert relative_l2_error(out["dual"], out["grouped"]) < 1e-3
