"""repro.distributed: partition, fabric, LET, and the multi-rank runtime.

The contracts under test:

* the decomposition is a contiguous Hilbert-range partition whose
  weighted mode equalizes work, not counts;
* the fabric's alpha-beta arithmetic and both-endpoint charging;
* the LET selection is *conservative*: every node the domain walk
  accepts satisfies the per-body MAC for every member body, so the
  exchanged halo is a superset of what any body needs;
* ``ranks=1`` never enters the distributed path (bit-identity with the
  single-rank kernels), ``theta=0`` makes the exchange exact, and
  ranks ∈ {2,4,8} stay inside the theta-controlled error bound;
* comm counters/traffic reach the machine layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.distributed import (
    DomainDecomposition,
    Fabric,
    WorkBalancer,
    build_let_plan,
    decompose,
    hilbert_keys,
)
from repro.distributed.let import _domain_groups
from repro.errors import ConfigurationError
from repro.machine import CostModel, get_device, get_interconnect
from repro.physics.accuracy import relative_l2_error
from repro.physics.bodies import BodySystem
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.traversal.engine import build_interaction_lists
from repro.workloads import galaxy_collision, plummer_sphere


def _system(n=600, seed=3) -> BodySystem:
    return galaxy_collision(n, seed=seed)


def _forces(system, **cfg_kw):
    sys2 = BodySystem(system.x.copy(), system.v.copy(), system.m.copy())
    sim = Simulation(sys2, SimulationConfig(**cfg_kw))
    return sim.evaluate_forces(), sim


# ----------------------------------------------------------------------
class TestPartition:
    def test_contiguous_key_ranges(self):
        from repro.geometry.aabb import compute_bounding_box

        s = _system()
        dec = decompose(s.x, 4)
        assert int(dec.counts.sum()) == s.n
        keys = hilbert_keys(s.x, compute_bounding_box(s.x))
        sk = keys[dec.order]
        assert np.all(sk[:-1] <= sk[1:])
        # ranks own disjoint contiguous half-open key ranges
        for r in range(4):
            mem_keys = keys[dec.members(r)]
            if mem_keys.size:
                assert mem_keys.min() >= dec.key_splits[r]
                if r < 3:
                    assert mem_keys.max() < dec.key_splits[r + 1]

    def test_assign_matches_rank_of(self):
        s = _system()
        from repro.geometry.aabb import compute_bounding_box

        keys = hilbert_keys(s.x, compute_bounding_box(s.x))
        dec = decompose(s.x, 5, keys=keys)
        assert np.array_equal(dec.assign(keys), dec.rank_of())

    def test_static_splits_equal_counts(self):
        s = _system(800)
        dec = decompose(s.x, 8)
        assert dec.counts.max() - dec.counts.min() <= 1

    def test_weighted_splits_equalize_work(self):
        s = _system(1000)
        # Skewed weights: first half of the curve is 10x as expensive.
        dec0 = decompose(s.x, 4)
        w = np.ones(s.n)
        w[dec0.members(0)] = 10.0
        w[dec0.members(1)] = 10.0
        dec = decompose(s.x, 4, mode="weighted", weights=w)
        per_rank = np.array([w[dec.members(r)].sum() for r in range(4)])
        assert per_rank.max() / per_rank.mean() < 1.3
        # static splits would put ~10x more work on the cheap-half ranks
        per_rank0 = np.array([w[dec0.members(r)].sum() for r in range(4)])
        assert per_rank.max() < per_rank0.max()

    def test_degenerate_weights_fall_back(self):
        s = _system(100)
        dec = decompose(s.x, 4, mode="weighted", weights=np.zeros(s.n))
        assert int(dec.counts.sum()) == s.n
        assert dec.counts.max() - dec.counts.min() <= 1

    def test_more_ranks_than_bodies(self):
        s = _system(30)
        dec = decompose(s.x, 64)
        assert int(dec.counts.sum()) == 30
        lo, hi = dec.domain_boxes(s.x)
        assert lo.shape == (64, 3)
        # empty ranks have inverted boxes
        empty = dec.counts == 0
        assert np.all(lo[empty] > hi[empty])

    def test_domain_boxes_cover_members(self):
        s = _system()
        dec = decompose(s.x, 4)
        lo, hi = dec.domain_boxes(s.x)
        for r in range(4):
            xm = s.x[dec.members(r)]
            assert np.all(xm >= lo[r]) and np.all(xm <= hi[r])

    def test_invalid_args(self):
        s = _system(10)
        with pytest.raises(ValueError):
            decompose(s.x, 0)
        with pytest.raises(ValueError):
            decompose(s.x, 2, mode="dynamic")


# ----------------------------------------------------------------------
class TestFabric:
    def test_alpha_beta(self):
        ic = get_interconnect("ib-ndr")
        f = Fabric.uniform(2, ic)
        t = f.message_seconds(0, 1, 1e9)
        assert t == pytest.approx(ic.latency_us * 1e-6 + 1e9 / (ic.bandwidth_gbs * 1e9))

    def test_send_charges_both_endpoints(self):
        f = Fabric.uniform(3, "nvlink4")
        t = f.send(0, 2, 4096.0)
        assert t > 0
        assert f.traffic.rank_seconds[0] == pytest.approx(t)
        assert f.traffic.rank_seconds[2] == pytest.approx(t)
        assert f.traffic.rank_seconds[1] == 0.0
        assert f.traffic.bytes_matrix[0, 2] == 4096.0
        assert f.traffic.total_messages == 1.0

    def test_self_send_is_free(self):
        f = Fabric.uniform(2, "nvlink4")
        assert f.send(1, 1, 1e12) == 0.0
        assert f.traffic.total_bytes == 0.0

    def test_hierarchical_link_classes(self):
        f = Fabric.hierarchical(4, 2, "nvlink4", "ib-ndr")
        assert f.link(0, 1).key == "nvlink4"
        assert f.link(2, 3).key == "nvlink4"
        assert f.link(1, 2).key == "ib-ndr"
        assert f.link(0, 3).key == "ib-ndr"
        # inter-node messages are slower
        assert f.message_seconds(0, 3, 1e6) > f.message_seconds(0, 1, 1e6)

    def test_allgather_ring(self):
        f = Fabric.uniform(4, "ib-ndr")
        t = f.allgather(1000.0)
        assert t > 0
        # K-1 hops from each of K ranks
        assert f.traffic.total_messages == 12.0
        assert f.traffic.total_bytes == pytest.approx(12_000.0)

    def test_reset_returns_and_zeroes(self):
        f = Fabric.uniform(2, "nvlink4")
        f.send(0, 1, 100.0)
        tr = f.reset()
        assert tr.total_bytes == 100.0
        assert f.traffic.total_bytes == 0.0

    def test_unknown_interconnect_raises(self):
        with pytest.raises(KeyError):
            Fabric.uniform(2, "token-ring")


# ----------------------------------------------------------------------
class TestLETConservative:
    """The halo-selection MAC must be a superset of every body's MAC."""

    @pytest.mark.parametrize("alg", ["octree", "bvh"])
    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
    def test_domain_accept_implies_body_accept(self, alg, theta):
        s = _system(400)
        dec = decompose(s.x, 3)
        src, dst = 0, 2
        xs, ms = s.x[dec.members(src)], s.m[dec.members(src)]
        xd = s.x[dec.members(dst)]
        if alg == "octree":
            from repro.octree.build_vectorized import build_octree_vectorized
            from repro.octree.force import octree_tree_view
            from repro.octree.multipoles import compute_multipoles_vectorized

            pool = build_octree_vectorized(xs)
            compute_multipoles_vectorized(pool, xs, ms, None)
            view = octree_tree_view(pool)
        else:
            from repro.bvh.build import build_bvh
            from repro.bvh.force import bvh_tree_view

            view = bvh_tree_view(build_bvh(xs, ms))
        lo = xd.min(axis=0)[None, :]
        hi = xd.max(axis=0)[None, :]
        lists = build_interaction_lists(view, _domain_groups(lo, hi), theta)
        accepted = lists.nodes[lists.approx]
        # every accepted node passes the per-body MAC for EVERY dest body
        for node in accepted:
            d = view.com[node][None, :] - xd
            r2 = np.einsum("ij,ij->i", d, d)
            assert np.all(view.size2[node] < theta * theta * r2)

    def test_theta_zero_exports_everything(self):
        s = _system(200)
        dec = decompose(s.x, 2)
        from repro.bvh.build import build_bvh
        from repro.bvh.force import bvh_tree_view

        xs, ms = s.x[dec.members(0)], s.m[dec.members(0)]
        view = bvh_tree_view(build_bvh(xs, ms))
        lo, hi = dec.domain_boxes(s.x)
        plan = build_let_plan(view, 0, np.array([1]), lo, hi, 0.0, dim=3)
        # nothing accepted -> every occupied leaf crosses the wire
        n_points = int(np.count_nonzero(view.klass == 1))
        assert plan.emitted_nodes[0] >= n_points
        assert plan.total_bytes > 0


# ----------------------------------------------------------------------
class TestRuntimeForces:
    def test_ranks_one_bypasses_runtime(self):
        s = _system(300)
        a1, sim1 = _forces(s, algorithm="bvh")
        aR, simR = _forces(s, algorithm="bvh", ranks=1)
        assert sim1.distributed is None and simR.distributed is None
        assert np.array_equal(a1, aR)

    @pytest.mark.parametrize("alg", ["octree", "bvh"])
    def test_ranks_one_trajectory_bit_identical(self, alg):
        s = _system(256)
        sysA = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
        sysB = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
        Simulation(sysA, SimulationConfig(algorithm=alg)).run(3)
        Simulation(sysB, SimulationConfig(algorithm=alg, ranks=1)).run(3)
        assert np.array_equal(sysA.x, sysB.x)
        assert np.array_equal(sysA.v, sysB.v)

    @pytest.mark.parametrize("alg", ["octree", "bvh"])
    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_let_forces_within_theta_bound(self, alg, ranks):
        s = _system(600)
        exact = pairwise_accelerations(s.x, s.m)
        a1, _ = _forces(s, algorithm=alg, theta=0.5)
        aK, _ = _forces(s, algorithm=alg, theta=0.5, ranks=ranks)
        # same theta-controlled accuracy class as the single-rank walk
        e1 = relative_l2_error(a1, exact)
        eK = relative_l2_error(aK, exact)
        assert eK < max(3.0 * e1, 0.05)
        # and close to the single-rank answer itself
        assert relative_l2_error(aK, a1) < 0.05

    @pytest.mark.parametrize("alg", ["octree", "bvh"])
    def test_theta_zero_is_exact(self, alg):
        s = _system(250)
        exact = pairwise_accelerations(s.x, s.m)
        aK, _ = _forces(s, algorithm=alg, theta=0.0, ranks=3)
        assert relative_l2_error(aK, exact) < 1e-12

    def test_grouped_traversal_distributed(self):
        s = _system(500)
        a1, _ = _forces(s, algorithm="bvh", traversal="grouped")
        aK, _ = _forces(s, algorithm="bvh", traversal="grouped", ranks=4)
        assert relative_l2_error(aK, a1) < 0.05

    def test_trajectory_tracks_single_rank(self):
        s = _system(300)
        sysA = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
        sysB = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
        Simulation(sysA, SimulationConfig(algorithm="bvh")).run(5)
        Simulation(sysB, SimulationConfig(algorithm="bvh", ranks=4,
                                          rebalance_steps=2)).run(5)
        assert relative_l2_error(sysB.x, sysA.x) < 1e-2

    @pytest.mark.parametrize("tree_update", ["rebuild", "refit", "cadence"])
    @pytest.mark.parametrize("traversal", ["lockstep", "grouped", "dual"])
    def test_twostage_trajectory_is_octree(self, traversal, tree_update):
        """The two-stage builder makes the octree's tree, so its
        trajectory is the octree's bit for bit, on one rank and
        distributed.  ``"cadence"`` is tree reuse (one rank only): its
        four evaluations rebuild, keep the structure twice, rebuild."""
        mode = (dict(tree_reuse_steps=3) if tree_update == "cadence"
                else dict(tree_update=tree_update))
        for ranks in (1,) if tree_update == "cadence" else (1, 2):
            x = {}
            for alg in ("octree", "octree-2stage"):
                s = plummer_sphere(600, seed=1)
                Simulation(s, SimulationConfig(
                    algorithm=alg, ranks=ranks, traversal=traversal,
                    **mode)).run(3)
                x[alg] = s.x
            assert np.array_equal(x["octree"], x["octree-2stage"]), ranks

    def test_auto_is_refit(self):
        """At ranks > 1 the runtime's one refit-or-rebuild decision
        compares against the fixed refit_disorder_threshold and never
        consults the cost model: "auto" runs exactly as "refit"."""
        runs = {}
        for mode in ("refit", "auto"):
            s = galaxy_collision(1500, seed=0)
            sim = Simulation(s, SimulationConfig(
                algorithm="bvh", traversal="grouped", ranks=2, dt=5e-3,
                tree_update=mode))
            sim.run(12)
            runs[mode] = s, sim.distributed.maint_counts
        (a, counts_a), (b, counts_b) = runs["refit"], runs["auto"]
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
        # Both branches of the decision are taken.
        assert counts_a == counts_b == {"rebuild": 11, "refit": 2}


# ----------------------------------------------------------------------
class TestRuntimeAccounting:
    def test_report_and_comm_counters(self):
        s = _system(400)
        _, sim = _forces(s, algorithm="bvh", ranks=4)
        rep = sim.distributed.last_report
        assert rep.n_ranks == 4
        assert int(rep.counts.sum()) == s.n
        assert rep.traffic.total_bytes > 0
        assert rep.let_bytes.sum() == pytest.approx(
            rep.traffic.bytes_matrix.sum() - 0.0, rel=1.0)  # halo dominates
        # per-rank counters carry comm work in the exchange step
        for sc in rep.rank_counters:
            assert sc.step("exchange").comm_bytes > 0
            assert sc.step("force").flops > 0
        # ...and they were rolled into the session's machine counters
        total = sim.ctx.step_counters.total()
        assert total.comm_bytes > 0
        assert total.comm_messages > 0

    def test_model_step_seconds_is_max_rank(self):
        s = _system(400)
        _, sim = _forces(s, algorithm="octree", ranks=2)
        rep = sim.distributed.last_report
        model = CostModel(sim.ctx.device)
        per_rank = rep.model_rank_seconds(model)
        assert per_rank.shape == (2,)
        assert rep.model_step_seconds(model) == pytest.approx(per_rank.max())
        compute, comm = rep.comm_compute_split(model)
        assert np.all(compute > 0) and np.all(comm > 0)

    def test_costmodel_interconnect_term(self):
        from repro.machine.counters import Counters

        dev = get_device("gh200")
        c = Counters(comm_bytes=1e9, comm_messages=10.0)
        no_ic = CostModel(dev).step_time(c)
        with_ic = CostModel(dev, interconnect=get_interconnect("ib-ndr")).step_time(c)
        assert no_ic.comm == 0.0
        ic = get_interconnect("ib-ndr")
        assert with_ic.comm == pytest.approx(
            10.0 * ic.latency_us * 1e-6 + 1e9 / (ic.bandwidth_gbs * 1e9))
        assert with_ic.total > no_ic.total

    def test_hierarchical_fabric_from_config(self):
        s = _system(300)
        _, sim = _forces(s, algorithm="bvh", ranks=4, ranks_per_node=2,
                         interconnect="nvlink4", inter_interconnect="ib-ndr")
        f = sim.distributed.fabric
        assert f.link(0, 1).key == "nvlink4"
        assert f.link(0, 2).key == "ib-ndr"

    def test_weighted_rebalance_uses_feedback(self):
        s = _system(500)
        sys2 = BodySystem(s.x.copy(), s.v.copy(), s.m.copy())
        sim = Simulation(sys2, SimulationConfig(
            algorithm="bvh", ranks=4, decomposition="weighted",
            rebalance_steps=2))
        sim.run(4)
        bal = sim.distributed.balancer
        assert bal.weights is not None
        assert bal.weights.shape == (s.n,)
        assert np.all(bal.weights > 0)

    def test_migration_counted_across_steps(self):
        s = _system(400, seed=9)
        sys2 = BodySystem(s.x.copy(), s.v.copy() * 50.0, s.m.copy())
        sim = Simulation(sys2, SimulationConfig(
            algorithm="bvh", ranks=4, dt=1e-2, rebalance_steps=1000))
        sim.run(6)
        # fast-moving bodies cross the cached key splits eventually
        assert sim.distributed.last_report.migrated >= 0


# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_ranks_require_tree_algorithm(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(algorithm="all-pairs", ranks=2)

    def test_bad_values(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(ranks=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(decomposition="round-robin")
        with pytest.raises(ConfigurationError):
            SimulationConfig(rebalance_steps=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(ranks_per_node=-1)

    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.ranks == 1 and cfg.decomposition == "static"


class TestWorkBalancer:
    def test_cadence(self):
        b = WorkBalancer(3, "weighted")
        assert [b.tick() for _ in range(7)] == [
            True, False, False, True, False, False, True]

    def test_observe_and_weights(self):
        s = _system(100)
        dec = decompose(s.x, 2)
        b = WorkBalancer(1, "weighted")
        b.observe(dec, np.array([2.0, 1.0]))
        w = b.weights_for(100)
        assert w is not None
        assert w[dec.members(0)].sum() == pytest.approx(2.0)
        assert w[dec.members(1)].sum() == pytest.approx(1.0)
        # stale size -> ignored
        assert b.weights_for(101) is None
        # static mode never feeds weights
        b2 = WorkBalancer(1, "static")
        b2.observe(dec, np.array([2.0, 1.0]))
        assert b2.weights_for(100) is None

    def test_imbalance(self):
        assert WorkBalancer.imbalance(np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert WorkBalancer.imbalance(np.array([3.0, 1.0])) == pytest.approx(1.5)
