"""Tests for tree reuse across timesteps (Iwasawa et al. amortization,
paper Section VI: "can be applied to any Barnes-Hut implementation")."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.physics.accuracy import relative_l2_error
from repro.physics.gravity import GravityParams
from repro.workloads import galaxy_collision

PARAMS = GravityParams(softening=0.05)


def run(alg, reuse, steps=8, n=250, dt=1e-3):
    s = galaxy_collision(n, seed=1)
    cfg = SimulationConfig(algorithm=alg, theta=0.4, dt=dt, gravity=PARAMS,
                           tree_reuse_steps=reuse)
    sim = Simulation(s, cfg)
    rep = sim.run(steps)
    return s, rep, sim


class TestConfig:
    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_invalid_values(self, bad):
        with pytest.raises(ConfigurationError):
            SimulationConfig(tree_reuse_steps=bad)

    def test_default_is_every_step(self):
        assert SimulationConfig().tree_reuse_steps == 1

    @pytest.mark.parametrize("alg", ["octree", "bvh"])
    def test_requires_single_rank(self, alg):
        """The distributed runtime keeps no reused trees: reject the
        combination instead of silently rebuilding every step."""
        with pytest.raises(ConfigurationError):
            SimulationConfig(algorithm=alg, tree_reuse_steps=3, ranks=2)


class TestOctreeReuse:
    def test_reuse_one_is_identical(self):
        a, _, _ = run("octree", 1)
        b, _, _ = run("octree", 1)
        assert np.array_equal(a.x, b.x)

    def test_reuse_skips_builds(self):
        """With reuse=k the build step runs ~steps/k times."""
        _, rep1, _ = run("octree", 1)
        _, rep4, _ = run("octree", 4)
        # build iterations are proportional to the number of rebuilds
        b1 = rep1.counters.steps["build_tree"].loop_iterations
        b4 = rep4.counters.steps["build_tree"].loop_iterations
        assert b4 < 0.5 * b1
        # multipoles still run every step
        m1 = rep1.counters.steps["multipoles"].kernel_launches
        m4 = rep4.counters.steps["multipoles"].kernel_launches
        assert m4 == m1

    def test_reuse_error_small_and_bounded(self):
        fresh, _, _ = run("octree", 1)
        reused, _, _ = run("octree", 4)
        err = relative_l2_error(reused.x, fresh.x)
        assert 0 < err < 1e-3  # an approximation, but a mild one

    def test_error_grows_with_reuse_window(self):
        fresh, _, _ = run("octree", 1, steps=12, dt=5e-3)
        errs = []
        for k in (2, 6, 12):
            s, _, _ = run("octree", k, steps=12, dt=5e-3)
            errs.append(relative_l2_error(s.x, fresh.x))
        assert errs[0] <= errs[-1]

    def test_rebuild_happens_after_window(self):
        _, _, sim = run("octree", 3, steps=7)
        # 7 force evaluations at construction+steps: ages cycle 1,2,3
        assert sim._tree_cache["_maintainer"]._age <= 3

    def test_energy_still_conserved(self):
        from repro.physics.diagnostics import energy_report

        s0 = galaxy_collision(250, seed=1)
        e0 = energy_report(s0, PARAMS)
        s, _, _ = run("octree", 4, steps=10)
        assert energy_report(s, PARAMS).drift_from(e0) < 1e-3


class TestBVHReuse:
    def test_reuse_skips_sorts(self):
        _, rep1, _ = run("bvh", 1)
        _, rep4, _ = run("bvh", 4)
        s1 = rep1.counters.steps["sort"].sort_comparisons
        s4 = rep4.counters.steps["sort"].sort_comparisons
        assert s4 < 0.5 * s1
        # the fused build still runs every step (boxes track positions)
        b1 = rep1.counters.steps["build_tree"].kernel_launches
        b4 = rep4.counters.steps["build_tree"].kernel_launches
        assert b4 == b1

    def test_bvh_boxes_stay_correct_under_reuse(self):
        """Reused BVH still covers all bodies: boxes are rebuilt from
        current positions each step (only the *order* is stale)."""
        fresh, _, _ = run("bvh", 1)
        reused, _, _ = run("bvh", 5)
        err = relative_l2_error(reused.x, fresh.x)
        assert err < 1e-6  # order staleness barely matters for the BVH

    def test_caches_are_per_simulation(self):
        s1 = galaxy_collision(100, seed=1)
        s2 = galaxy_collision(100, seed=2)
        cfg = SimulationConfig(algorithm="bvh", gravity=PARAMS, tree_reuse_steps=5)
        sim1 = Simulation(s1, cfg)
        sim2 = Simulation(s2, cfg)
        sim1.run(2)
        sim2.run(2)
        assert sim1._tree_cache is not sim2._tree_cache
        p1 = sim1._tree_cache["_maintainer"].tree.perm
        p2 = sim2._tree_cache["_maintainer"].tree.perm
        assert not np.array_equal(p1, p2)


class TestAllPairsIgnoresCache:
    def test_no_cache_entries(self):
        _, _, sim = run("all-pairs", 4)
        assert sim._tree_cache == {}


THETA = 0.4
GROUP_SIZE = 16


def grun(alg, reuse, steps=6, n=250, dt=1e-3):
    s = galaxy_collision(n, seed=1)
    cfg = SimulationConfig(algorithm=alg, theta=THETA, dt=dt, gravity=PARAMS,
                           tree_reuse_steps=reuse,
                           traversal="grouped", group_size=GROUP_SIZE)
    sim = Simulation(s, cfg)
    rep = sim.run(steps)
    return s, rep, sim


def _assert_superset_mac(view, lists, groups, x_sorted, slack=1.0):
    """Every accepted (approx) node satisfies the *per-body* MAC for
    every member body of its group: the conservative group MAC used
    dmin <= d_i, so group-accept implies body-accept — the cached group
    lists only ever open MORE than any member's own walk would.
    *slack* loosens the bound for positions that drifted since the
    lists were built (reuse steps)."""
    go = groups.offsets
    checked = 0
    for g in range(lists.n_groups):
        nodes = lists.approx_nodes(g)
        if nodes.size == 0:
            continue
        xs = x_sorted[int(go[g]):int(go[g + 1])]
        for v in nodes:
            d2 = np.min(np.sum((xs - view.com[v]) ** 2, axis=1))
            assert view.size2[v] <= THETA * THETA * d2 * slack, (
                f"group {g} accepted node {v} violating a member's MAC")
            checked += 1
    assert checked > 0


class TestGroupedListCache:
    """The interaction-list cache under ``tree_reuse_steps > 1``:
    lists expire with the tree structure, stay conservative-MAC
    supersets for every member body, and keep the theta error bound
    when evaluated against the refreshed multipoles."""

    ILIST_KEY = ("lists", THETA, GROUP_SIZE, 0.0)

    def test_lists_live_in_structure_entry(self):
        _, _, sim = grun("octree", 4)
        entry = sim._tree_cache["_maintainer"].entry
        assert self.ILIST_KEY in entry
        assert entry[self.ILIST_KEY]["lists"].theta == THETA

    def test_list_builds_amortized(self):
        """With reuse=k the group walk runs ~steps/k times; the dense
        tile evaluation still runs every step."""
        _, rep1, _ = grun("octree", 1, steps=8)
        _, rep4, _ = grun("octree", 4, steps=8)
        b1 = rep1.counters.steps["force"].list_build_steps
        b4 = rep4.counters.steps["force"].list_build_steps
        assert 0 < b4 < 0.5 * b1
        e1 = rep1.counters.steps["force"].list_eval_interactions
        e4 = rep4.counters.steps["force"].list_eval_interactions
        assert e4 > 0.5 * e1  # eval work does not disappear

    def test_octree_cached_lists_superset_mac(self):
        from repro.octree.force import octree_tree_view

        _, _, sim = grun("octree", 8, steps=5)
        maint = sim._tree_cache["_maintainer"]
        cached = maint.entry[self.ILIST_KEY]
        view = octree_tree_view(maint.tree)
        x_sorted = sim.system.x[cached["perm"]]
        # Multipole COMs were refreshed at the current positions while
        # the lists are up to 5 steps stale; allow the drift slack.
        _assert_superset_mac(view, cached["lists"], cached["groups"],
                             x_sorted, slack=1.05)

    def test_bvh_cached_lists_superset_mac(self):
        from repro.bvh.build import assemble_bvh
        from repro.bvh.force import bvh_tree_view

        _, _, sim = grun("bvh", 8, steps=5)
        maint = sim._tree_cache["_maintainer"]
        cached = maint.entry[self.ILIST_KEY]
        perm, box = maint.tree.perm, maint.tree.box
        # The BVH is reassembled from the cached permutation at current
        # positions every step — exactly what the cached lists index.
        bvh = assemble_bvh(sim.system.x, sim.system.m, perm, box)
        _assert_superset_mac(bvh_tree_view(bvh), cached["lists"],
                             cached["groups"], bvh.x_sorted, slack=1.05)

    def test_fresh_lists_superset_mac_exact(self):
        """At build time (no drift) the superset property is exact."""
        from repro.octree.build_vectorized import build_octree_vectorized
        from repro.octree.multipoles import compute_multipoles_vectorized
        from repro.octree.force import octree_tree_view
        from repro.traversal import tree_accelerations

        s = galaxy_collision(300, seed=3)
        pool = build_octree_vectorized(s.x)
        compute_multipoles_vectorized(pool, s.x, s.m, None)
        entry: dict = {}
        tree_accelerations(octree_tree_view(pool), s.x, s.m, PARAMS,
                           theta=THETA, group_size=GROUP_SIZE, cache=entry)
        cached = entry[self.ILIST_KEY]
        _assert_superset_mac(octree_tree_view(pool), cached["lists"],
                             cached["groups"], s.x[cached["perm"]], slack=1.0)

    @pytest.mark.parametrize("alg", ["octree", "bvh"])
    def test_theta_error_bound_with_cached_lists(self, alg):
        """Cached lists + refreshed multipoles stay within the theta
        accuracy class of a full rebuild at the same positions."""
        _, _, sim = grun(alg, 16, steps=5)
        acc_cached = sim.evaluate_forces()  # age 6 < 16: cache hit

        fresh = Simulation(
            sim.system,
            SimulationConfig(algorithm=alg, theta=THETA, gravity=PARAMS,
                             traversal="grouped", group_size=GROUP_SIZE),
        )
        acc_fresh = fresh.evaluate_forces()
        assert relative_l2_error(acc_cached, acc_fresh) < 0.12 * THETA
