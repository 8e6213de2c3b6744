"""Incremental tree maintenance: refit-over-rebuild (repro.maintenance).

Covers the PR's acceptance properties:

* refit at zero drift is bit-exact with a full rebuild (tree arrays and
  maintained forces, single-rank and distributed);
* under bounded drift the maintained forces stay inside the same theta
  error bound the cached-list reuse holds;
* cached interaction lists surviving the drift gate remain conservative
  supersets of every member body's MAC;
* the disorder / key-cache / policy building blocks behave.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh.build import assemble_bvh, build_bvh, hilbert_sort_permutation, refit_bvh
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.geometry.aabb import compute_bounding_box
from repro.geometry.hilbert import hilbert_encode
from repro.maintenance.disorder import coarsen_keys, key_disorder, sense_bits
from repro.maintenance.keycache import KeyCache
from repro.physics.accuracy import relative_l2_error
from repro.physics.bodies import BodySystem
from repro.physics.gravity import GravityParams
from repro.workloads import galaxy_collision

PARAMS = GravityParams(softening=0.05)
THETA = 0.5


def _cfg(**kw) -> SimulationConfig:
    base = dict(algorithm="bvh", theta=THETA, dt=1e-3, gravity=PARAMS,
                traversal="grouped", group_size=16, tree_update="refit")
    base.update(kw)
    return SimulationConfig(**base)


def _sim(n=300, seed=0, **kw) -> Simulation:
    return Simulation(galaxy_collision(n, seed=seed), _cfg(**kw))


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_modes_accepted(self):
        for mode in ("rebuild", "refit", "auto"):
            assert _cfg(tree_update=mode).tree_update == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            _cfg(tree_update="resort")

    def test_requires_tree_algorithm(self):
        with pytest.raises(ConfigurationError):
            _cfg(algorithm="all-pairs")

    def test_supersedes_tree_reuse(self):
        with pytest.raises(ConfigurationError):
            _cfg(tree_reuse_steps=4)

    def test_drift_budget_positive(self):
        with pytest.raises(ConfigurationError):
            _cfg(drift_budget=0.0)

    def test_disorder_threshold_range(self):
        with pytest.raises(ConfigurationError):
            _cfg(refit_disorder_threshold=1.5)


# ----------------------------------------------------------------------
# refit_bvh kernel
# ----------------------------------------------------------------------
class TestRefitBVH:
    @pytest.mark.parametrize("order", [1, 2])
    def test_bitexact_vs_rebuild_at_drifted_positions(self, order):
        """refit(x') must equal assemble(x', perm) bitwise for ANY x':
        both run the same factored level sweeps, only the (stale)
        permutation is inherited."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((257, 3))
        m = rng.uniform(0.5, 2.0, 257)
        bvh = build_bvh(x, m, order=order)
        x2 = x + 0.05 * rng.standard_normal(x.shape)
        ref = refit_bvh(bvh, x2)
        reb = assemble_bvh(x2, m, bvh.perm, bvh.box, order=order)
        for name in ("bb_lo", "bb_hi", "com", "mass", "count", "x_sorted"):
            np.testing.assert_array_equal(getattr(ref, name),
                                          getattr(reb, name), err_msg=name)
        if order == 2:
            np.testing.assert_array_equal(ref.quad, reb.quad)

    def test_rejects_changed_body_count(self):
        x = np.random.default_rng(0).standard_normal((64, 3))
        bvh = build_bvh(x, np.ones(64))
        with pytest.raises(ValueError):
            refit_bvh(bvh, x[:32])


# ----------------------------------------------------------------------
# Maintained simulation: zero drift
# ----------------------------------------------------------------------
class TestZeroDrift:
    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_refit_step_bitexact_vs_forced_rebuild(self, alg):
        """At unchanged positions the refit path must reproduce a full
        rebuild bitwise (not just within tolerance)."""
        refitted = _sim(algorithm=alg)
        rebuilt = _sim(algorithm=alg)
        rebuilt._tree_cache.clear()  # forget the epoch -> forced rebuild
        a = refitted.evaluate_forces()  # construction built; this refits
        b = rebuilt.evaluate_forces()
        maint = refitted._tree_cache["_maintainer"]
        assert maint.counts["refit"] >= 1
        np.testing.assert_array_equal(a, b)

    def test_repeated_refits_stable(self):
        sim = _sim()
        a = sim.evaluate_forces()
        b = sim.evaluate_forces()
        np.testing.assert_array_equal(a, b)
        assert sim._tree_cache["_maintainer"].counts["refit"] >= 2


# ----------------------------------------------------------------------
# Maintained simulation: bounded drift
# ----------------------------------------------------------------------
class TestBoundedDrift:
    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    @pytest.mark.parametrize("mode", ["refit", "auto"])
    def test_theta_error_bound_held(self, alg, mode):
        """After several maintained steps the forces stay within the
        cached-list theta bound vs a fresh rebuild at the same state."""
        sim = _sim(algorithm=alg, tree_update=mode, n=400)
        sim.run(6)
        acc = sim.evaluate_forces()
        fresh = Simulation(
            BodySystem(sim.system.x.copy(), sim.system.v.copy(),
                       sim.system.m.copy()),
            _cfg(algorithm=alg, tree_update="rebuild"),
        )
        err = relative_l2_error(acc, fresh.evaluate_forces())
        assert err < 0.12 * THETA

    def test_refits_actually_happen(self):
        sim = _sim(n=400)
        sim.run(6)
        counts = sim._tree_cache["_maintainer"].counts
        assert counts["refit"] >= 3
        assert counts["rebuild"] >= 1  # the construction epoch

    def test_surviving_lists_are_superset_mac(self):
        """Approx entries of gate-surviving cached lists still satisfy
        every member body's MAC (with the drift slack) at the *current*
        positions and refitted geometry."""
        from repro.bvh.force import bvh_tree_view

        sim = _sim(n=400)
        sim.run(5)
        maint = sim._tree_cache["_maintainer"]
        key = ("lists", THETA, 16, 0.0)
        cached = maint.entry.get(key)
        assert cached is not None
        lists, groups = cached["lists"], cached["groups"]
        view = bvh_tree_view(maint.tree)
        x_sorted = maint.tree.x_sorted
        go = groups.offsets
        checked = 0
        for g in range(lists.n_groups):
            nodes = lists.approx_nodes(g)
            if nodes.size == 0:
                continue
            xs = x_sorted[int(go[g]):int(go[g + 1])]
            for v in nodes:
                d2 = np.min(np.sum((xs - view.com[v]) ** 2, axis=1))
                assert view.size2[v] <= THETA * THETA * d2 * 1.1, (
                    f"group {g} kept node {v} violating a member's MAC")
                checked += 1
        assert checked > 0

    def test_teleport_triggers_rebuild(self):
        sim = _sim(n=300)
        sim.evaluate_forces()  # refit at zero drift
        sim.system.x += 10.0 * np.sign(sim.system.x)  # scatter outward
        sim.evaluate_forces()
        maint = sim._tree_cache["_maintainer"]
        assert maint.last_decision.action == "rebuild"
        assert maint.counts["rebuild"] >= 2


# ----------------------------------------------------------------------
# Disorder measures
# ----------------------------------------------------------------------
class TestDisorder:
    def test_sorted_keys_zero(self):
        s = key_disorder(np.arange(100, dtype=np.uint64))
        assert s.fraction == 0.0 and s.inversion_fraction == 0.0

    def test_reversed_keys_high(self):
        s = key_disorder(np.arange(100, dtype=np.uint64)[::-1])
        assert s.fraction > 0.9

    def test_single_straggler_counts_once(self):
        # One body fell to the back of the curve: it displaces itself
        # only, while the adjacent-inversion count also stays at one.
        k = np.concatenate([np.arange(1, 100), [0]]).astype(np.uint64)
        s = key_disorder(k)
        assert s.displaced == 1 and s.inversions == 1

    def test_coarsen_is_prefix_truncation(self):
        """Hilbert keys are hierarchical: coarsening by shift equals
        re-encoding on the coarser grid."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, (500, 3))
        box = compute_bounding_box(x)
        from repro.geometry.aabb import quantize_to_grid

        fine = hilbert_encode(quantize_to_grid(x, box, 9), 9)
        coarse = hilbert_encode(quantize_to_grid(x, box, 4), 4)
        np.testing.assert_array_equal(coarsen_keys(fine, 9, 4, 3), coarse)

    def test_sense_bits_scales_with_n(self):
        assert sense_bits(100, 3) == 3  # floor
        assert sense_bits(10_000, 3, occupancy=32) == 3
        assert sense_bits(10_000_000, 3, occupancy=32) == 7
        assert sense_bits(10_000, 2, occupancy=32) >= sense_bits(10_000, 3)


# ----------------------------------------------------------------------
# Key cache
# ----------------------------------------------------------------------
class TestKeyCache:
    def _setup(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((128, 3))
        return KeyCache(), x, compute_bounding_box(x)

    def test_hit_on_same_buffer(self):
        kc, x, box = self._setup()
        k1 = kc.keys(x, box, bits=8)
        k2 = kc.keys(x, box, bits=8)
        assert kc.hits == 1 and kc.misses == 1
        np.testing.assert_array_equal(k1, k2)

    def test_miss_on_changed_positions_or_grid(self):
        kc, x, box = self._setup()
        kc.keys(x, box, bits=8)
        kc.keys(x + 1e-9, box, bits=8)
        kc.keys(x, box, bits=9)
        kc.keys(x, box, bits=8, curve="morton")
        assert kc.misses == 4 and kc.hits == 0

    def test_lru_eviction(self):
        kc, x, box = self._setup()
        for b in (4, 5, 6, 7, 8):  # capacity 4: bits=4 evicted
            kc.keys(x, box, bits=b)
        kc.keys(x, box, bits=4)
        assert kc.misses == 6

    def test_matches_partitioner_keys(self):
        """Cache and hilbert_keys agree (same cubified-expanded grid)."""
        from repro.distributed.partition import hilbert_keys

        kc, x, box = self._setup()
        np.testing.assert_array_equal(kc.keys(x, box, bits=10),
                                      hilbert_keys(x, box, bits=10))

    def test_encode_charged_only_on_miss(self):
        from repro.stdpar.context import ExecutionContext

        kc, x, box = self._setup()
        ctx = ExecutionContext()
        with ctx.step("encode"):
            kc.keys(x, box, bits=16, ctx=ctx)
        miss_flops = ctx.step_counters.step("encode").flops
        with ctx.step("encode"):
            kc.keys(x, box, bits=16, ctx=ctx)
        hit_flops = ctx.step_counters.step("encode").flops - miss_flops
        assert 0 < hit_flops < 0.1 * miss_flops  # fingerprint only


# ----------------------------------------------------------------------
# Key dedupe: sort consumes precomputed keys
# ----------------------------------------------------------------------
def test_sort_permutation_accepts_precomputed_keys():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 3))
    box = compute_bounding_box(x)
    p1 = hilbert_sort_permutation(x, box, bits=8)
    kc = KeyCache()
    p2 = hilbert_sort_permutation(x, box, bits=8,
                                  keys=kc.keys(x, box, bits=8))
    np.testing.assert_array_equal(p1, p2)


# ----------------------------------------------------------------------
# Distributed runtime
# ----------------------------------------------------------------------
class TestDistributedMaintenance:
    def _mk(self, alg, mode="refit", n=400):
        return Simulation(
            galaxy_collision(n, seed=0),
            _cfg(algorithm=alg, tree_update=mode, ranks=2, group_size=32),
        )

    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_zero_drift_refit_bitexact(self, alg):
        refitted = self._mk(alg)
        rebuilt = self._mk(alg)
        rebuilt.distributed._epoch = None  # forget epoch -> rebuild path
        a = refitted.evaluate_forces()
        b = rebuilt.evaluate_forces()
        assert refitted.distributed.maint_counts["refit"] >= 1
        assert rebuilt.distributed.maint_counts["rebuild"] >= 2
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_refit_exchange_ships_fewer_bytes(self, alg):
        sim = self._mk(alg)
        sim.evaluate_forces()  # refit step: refresh-only exchange
        refit_bytes = sim.distributed.last_report.let_bytes.sum()
        sim.distributed._epoch = None
        sim.evaluate_forces()  # rebuild step: full LET exchange
        full_bytes = sim.distributed.last_report.let_bytes.sum()
        assert 0 < refit_bytes < full_bytes

    def test_drifted_run_tracks_rebuild_mode(self):
        sim = self._mk("bvh", mode="auto")
        ref = Simulation(
            galaxy_collision(400, seed=0),
            _cfg(algorithm="bvh", tree_update="rebuild", ranks=2,
                 group_size=32),
        )
        sim.run(5)
        ref.run(5)
        dev = relative_l2_error(sim.system.x, ref.system.x)
        assert dev < 1e-3
        assert sim.distributed.maint_counts["refit"] >= 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_profile_runs(capsys):
    from repro.cli import main

    rc = main(["run", "--algorithm", "bvh", "--n", "200", "--steps", "2",
               "--traversal", "grouped", "--tree-update", "auto",
               "--profile"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "--- profile" in out
    assert "tree maintenance:" in out
    assert "refit" in out
