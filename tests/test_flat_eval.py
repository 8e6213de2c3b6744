"""Flattened batch evaluation (:mod:`repro.traversal.flat`).

The flat evaluator is a pure re-execution strategy for the cached
interaction lists: it must match the tile evaluator to float64
round-off (the tile path is the deterministic reference), dedupe the
symmetric near field without breaking Newton's third law, and live in
the structure cache so list invalidation drops it in the same stroke.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.accuracy import relative_l2_error
from repro.physics.bodies import BodySystem
from repro.physics.gravity import GravityParams
from repro.traversal import (
    build_flat_lists,
    evaluate_flat,
    make_groups,
    tree_accelerations,
)
from repro.traversal.driver import hilbert_body_order
from repro.traversal.engine import build_interaction_lists
from repro.traversal.flat import MUTUAL_KINDS
from repro.workloads import galaxy_collision, uniform_cube

RTOL = 1e-12


def _octree(x, m, *, order=1, bits=None):
    pool = build_octree_vectorized(x, bits=bits)
    compute_multipoles_vectorized(pool, x, m, None, order=order)
    return pool


def _forces(system, **cfg_kw):
    sys2 = BodySystem(system.x.copy(), system.v.copy(), system.m.copy())
    sim = Simulation(sys2, SimulationConfig(**cfg_kw))
    return sim.evaluate_forces(), sim


class TestFlatMatchesTile:
    """flat is a kernel-level rewrite of tile: agreement to round-off."""

    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_bvh(self, small_cloud, soft_gravity, theta):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        tile = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, theta=theta,
                                  group_size=16, eval_mode="tile")
        flat = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, theta=theta,
                                  group_size=16, eval_mode="flat")
        assert relative_l2_error(flat, tile) < RTOL

    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_octree(self, small_cloud, soft_gravity, theta):
        pool = _octree(small_cloud.x, small_cloud.m)
        kw = dict(params=soft_gravity, theta=theta, group_size=16)
        tile = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                                  small_cloud.m, eval_mode="tile", **kw)
        flat = tree_accelerations(octree_tree_view(pool), small_cloud.x,
                                  small_cloud.m, eval_mode="flat", **kw)
        assert relative_l2_error(flat, tile) < RTOL

    def test_octree_bucket_leaves(self, soft_gravity):
        """Coarse grid forces multi-body buckets into the exact path."""
        rng = np.random.default_rng(7)
        x = np.repeat(rng.random((20, 3)), 4, axis=0)
        x += 1e-9 * rng.standard_normal(x.shape)
        m = rng.random(x.shape[0]) + 0.1
        pool = _octree(x, m, bits=3)
        kw = dict(params=soft_gravity, theta=0.5, group_size=8)
        tile = tree_accelerations(octree_tree_view(pool), x, m,
                                  eval_mode="tile", **kw)
        flat = tree_accelerations(octree_tree_view(pool), x, m,
                                  eval_mode="flat", **kw)
        assert relative_l2_error(flat, tile) < RTOL

    def test_quadrupole_dense_batches(self, small_cloud, soft_gravity):
        """Order-2 trees batch dense too: the accepted-node buckets carry
        the quadrupole term, on every accepted slot exactly once."""
        bvh = build_bvh(small_cloud.x, small_cloud.m, order=2)
        tile = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, theta=0.6,
                                  group_size=16, eval_mode="tile")
        flat = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, theta=0.6,
                                  group_size=16, eval_mode="flat")
        assert relative_l2_error(flat, tile) < RTOL
        view = bvh_tree_view(bvh)
        groups = make_groups(bvh.x_sorted, 16)
        lists = build_interaction_lists(view, groups, 0.6)
        fl = build_flat_lists(view, lists, groups)
        assert any(b.kind == "node" for b in fl.buckets)
        _, stats = evaluate_flat(view, fl, bvh.x_sorted, G=1.0, eps2=1e-4,
                                 m_sorted=bvh.m_sorted)
        rows = np.diff(groups.offsets)
        expected = sum(int(rows[g]) * lists.approx_nodes(g).size
                       for g in range(groups.n_groups))
        assert stats["quad_terms"] == fl.n_node_pairs == expected

    def test_eps2_zero(self, small_cloud):
        """Unsoftened gravity: self pairs are excluded, not clamped."""
        params = GravityParams(G=1.0, softening=0.0)
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        tile = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, params, group_size=16,
                                  eval_mode="tile")
        flat = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, params, group_size=16,
                                  eval_mode="flat")
        assert np.all(np.isfinite(flat))
        assert relative_l2_error(flat, tile) < RTOL

    def test_massless_tracers_raise_no_warning(self):
        """Unsoftened dense batches with massless bodies: a massless
        node's centre (the origin) meets the pad row, whose r2 = 0
        weight must be masked before the mass multiply, not after."""
        s = uniform_cube(2000, seed=1)
        s.m[1::2] = 0.0  # tracer particles
        sim = Simulation(s, SimulationConfig(algorithm="bvh",
                                             traversal="grouped"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run(2)
        assert np.all(np.isfinite(s.x)) and np.all(np.isfinite(s.v))

    def test_group_size_one(self, small_cloud, soft_gravity):
        """Degenerate groups: every near pair is a single body pair."""
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        tile = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, group_size=1,
                                  eval_mode="tile")
        flat = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, group_size=1,
                                  eval_mode="flat")
        assert relative_l2_error(flat, tile) < RTOL

    def test_auto_mode_selection(self, small_cloud, soft_gravity):
        """auto = tile for singleton groups, flat for every multi-body
        call, cached or one-shot."""
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        cache: dict = {}
        auto = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, group_size=16,
                                  eval_mode="auto", cache=cache)
        (entry,) = cache.values()
        assert "flat" in entry  # cached multi-body groups pick flat
        flat = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                  small_cloud.m, soft_gravity, group_size=16,
                                  eval_mode="flat")
        assert np.array_equal(auto, flat)
        uncached = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                      small_cloud.m, soft_gravity,
                                      group_size=16, eval_mode="auto")
        assert np.array_equal(uncached, flat)
        auto1 = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                   small_cloud.m, soft_gravity, group_size=1,
                                   eval_mode="auto")
        tile1 = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                   small_cloud.m, soft_gravity, group_size=1,
                                   eval_mode="tile")
        assert np.array_equal(auto1, tile1)


class TestNewtonThirdLaw:
    def _flat(self, n=500, group_size=16, theta=0.5):
        s = galaxy_collision(n, seed=11)
        bvh = build_bvh(s.x, s.m)
        view = bvh_tree_view(bvh)
        groups = make_groups(bvh.x_sorted, group_size)
        lists = build_interaction_lists(view, groups, theta)
        return bvh, view, groups, build_flat_lists(view, lists, groups)

    def test_dedup_counts(self):
        _, _, _, fl = self._flat()
        assert fl.pairs_evaluated == fl.n_two_sided + fl.n_one_sided
        # naive counts ordered pairs: both orientations of every
        # two-sided pair, one of every one-sided pair.
        assert fl.pairs_naive == 2 * fl.n_two_sided + fl.n_one_sided
        ratio = fl.pairs_naive / fl.pairs_evaluated
        assert 1.0 < ratio <= 2.0

    def test_two_sided_pool_conserves_momentum(self):
        """Each deduped pair scatters an equal and opposite impulse:
        the two-sided blocks' row sums and reactions share one tile."""
        bvh, view, _, fl = self._flat()
        two_only = dataclasses.replace(
            fl, buckets=[b for b in fl.buckets if b.kind in MUTUAL_KINDS],
            _scratch={})
        assert two_only.n_two_sided > 0 and two_only.n_one_sided == 0
        assert {b.kind for b in two_only.buckets} == {"two", "tri"}
        acc, _ = evaluate_flat(view, two_only, bvh.x_sorted,
                               G=1.0, eps2=1e-4, m_sorted=bvh.m_sorted)
        assert np.any(acc != 0.0)
        net = (bvh.m_sorted[:, None] * acc).sum(axis=0)
        scale = np.abs(bvh.m_sorted[:, None] * acc).sum(axis=0).max()
        assert np.all(np.abs(net) < 1e-12 * scale)

    def test_stats_expose_dedup(self):
        bvh, view, _, fl = self._flat()
        _, stats = evaluate_flat(view, fl, bvh.x_sorted,
                                 G=1.0, eps2=1e-4, m_sorted=bvh.m_sorted)
        assert stats["near_pairs_naive"] == fl.pairs_naive
        assert stats["near_pairs_evaluated"] == fl.pairs_evaluated
        assert stats["flat_launches"] >= 1

    def test_monopole_galaxy_uses_dense_batches(self):
        _, _, groups, fl = self._flat()
        nodes = [b for b in fl.buckets if b.kind == "node"]
        assert len(nodes) >= 1
        # Under n3l the node buckets hold accepted nodes only, and no
        # bucket has a self slot; every group with a list sits in
        # exactly one node bucket.
        assert all(b.self_slots is None for b in fl.buckets)
        assert {b.kind for b in fl.buckets} <= {"node", "one", "two", "tri"}
        assert fl.n_node_pairs == sum(b.n_real for b in nodes)
        assert sum(b.row_mat.shape[0] for b in nodes) <= groups.n_groups


def _reference_body_pools(view, lists, groups, body_ids, exact_bodies):
    """The canonical-key construction of the n3l body pools: expand
    every ordered near-field pair, sort by its ``(min, max)`` key and
    split multiplicity two (two-sided) from one (one-sided).  Test-only
    oracle for :func:`build_flat_lists`' entry/run-level blocks.
    """
    n = groups.n_bodies
    row_of = None
    if body_ids is not None:
        row_of = np.empty(n, dtype=np.int64)
        row_of[body_ids] = np.arange(n, dtype=np.int64)
    go = groups.offsets.astype(np.int64)
    ts: list[np.ndarray] = []
    ss: list[np.ndarray] = []
    for g in range(groups.n_groups):
        rows = np.arange(go[g], go[g + 1], dtype=np.int64)
        src = view.point_body[lists.direct_leaves(g)].astype(np.int64)
        if row_of is not None:
            src = row_of[src]
        ts.append(np.repeat(rows, src.size))
        ss.append(np.tile(src, rows.size))
    if exact_bodies is not None:
        for g, node in zip(lists.exact_groups, lists.exact_nodes):
            rows = np.arange(go[g], go[g + 1], dtype=np.int64)
            bodies = np.asarray(exact_bodies(int(node)), dtype=np.int64)
            srows = bodies if row_of is None else row_of[bodies]
            ts.append(np.repeat(rows, srows.size))
            ss.append(np.tile(srows, rows.size))
    t = np.concatenate(ts) if ts else np.empty(0, dtype=np.int64)
    s = np.concatenate(ss) if ss else np.empty(0, dtype=np.int64)
    keep = t != s
    t, s = t[keep], s[keep]
    pairs_naive = int(t.size)
    if t.size:
        lo, hi = np.minimum(t, s), np.maximum(t, s)
        key = lo * np.int64(n) + hi
        order = np.argsort(key, kind="stable")
        k = key[order]
        first = np.ones(k.size, dtype=bool)
        first[1:] = k[1:] != k[:-1]
        dup_next = np.zeros(k.size, dtype=bool)
        dup_next[:-1] = k[1:] == k[:-1]
        two = order[first & dup_next]
        one = order[first & ~dup_next]
        s_t, s_s = lo[two], hi[two]
        o_t, o_s = t[one], s[one]
        oorder = np.argsort(o_t, kind="stable")
        o_t, o_s = o_t[oorder], o_s[oorder]
    else:
        s_t = s_s = o_t = o_s = np.empty(0, dtype=np.int64)
    return {"s_t": s_t, "s_s": s_s, "o_t": o_t, "o_s": o_s,
            "pairs_naive": pairs_naive,
            "includes_exact": exact_bodies is not None}


def _block_pairs(fl, kinds):
    """Every (target, source) pair the blocks of *kinds* evaluate, one
    entry per evaluated slot: real rows x real columns, the strict upper
    triangle of a ``tri`` block."""
    ts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    ss: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for b in fl.buckets:
        if b.kind not in kinds:
            continue
        B, K = b.row_mat.shape[1], b.col_mat.shape[1]
        real = ((np.arange(B) < b.n_rows[:, None])[:, :, None]
                & (np.arange(K) < b.n_cols[:, None])[:, None, :])
        if b.kind == "tri":
            real &= ~np.tri(B, K, dtype=bool)
        ts.append(np.broadcast_to(b.row_mat[:, :, None], real.shape)[real])
        ss.append(np.broadcast_to(b.col_mat[:, None, :], real.shape)[real])
    return (np.concatenate(ts).astype(np.int64),
            np.concatenate(ss).astype(np.int64))


def _sorted_pairs(t, s):
    order = np.lexsort((s, t))
    return t[order], s[order]


class TestBodyPoolsMatchCanonicalSort:
    """The entry/run-level n3l blocks cover the canonical pair-sort
    pools exactly: two-sided blocks its two-sided pairs, one-sided
    blocks its one-sided pairs, each pair once."""

    @staticmethod
    def _lists(view, x, group_size, theta=0.5):
        sorts = view.body_order is None
        perm = hilbert_body_order(x, view.box) if sorts else view.body_order
        groups = make_groups(x[perm], group_size)
        lists = build_interaction_lists(view, groups, theta)
        return lists, groups, (perm if sorts else None)

    @staticmethod
    def _assert_matches(view, lists, groups, body_ids, exact_bodies):
        fl = build_flat_lists(view, lists, groups, body_ids=body_ids,
                              exact_bodies=exact_bodies)
        ref = _reference_body_pools(view, lists, groups, body_ids,
                                    exact_bodies)
        for kinds, t, s in ((MUTUAL_KINDS, "s_t", "s_s"),
                            (("one",), "o_t", "o_s")):
            got = _sorted_pairs(*_block_pairs(fl, kinds))
            want = _sorted_pairs(ref[t], ref[s])
            assert np.array_equal(got[0], want[0]), kinds
            assert np.array_equal(got[1], want[1]), kinds
        assert fl.n_two_sided == ref["s_t"].size
        assert fl.n_one_sided == ref["o_t"].size
        assert fl.pairs_evaluated == ref["s_t"].size + ref["o_t"].size
        assert fl.pairs_naive == ref["pairs_naive"]
        assert fl.includes_exact == ref["includes_exact"]
        rows = np.diff(groups.offsets)
        assert fl.n_node_pairs == sum(
            int(rows[g]) * lists.approx_nodes(g).size
            for g in range(groups.n_groups))
        return fl

    def _check(self, view, x, group_size, exact_bodies):
        lists, groups, body_ids = self._lists(view, x, group_size)
        return self._assert_matches(view, lists, groups, body_ids,
                                    exact_bodies), lists

    @staticmethod
    def _coincident(n, seed=7):
        rng = np.random.default_rng(seed)
        x = np.repeat(rng.random((max(n // 4, 1), 3)), 4, axis=0)[:n]
        return x, rng.random(x.shape[0]) + 0.1

    @pytest.mark.parametrize("group_size", [1, 7, 32])
    @pytest.mark.parametrize("order", [1, 2])
    def test_octree_bucket_leaves(self, group_size, order):
        """Coincident bodies on a 3-bit grid force bucket leaves, whose
        bodies fold into the pools; octree rows are permuted body ids."""
        x, m = self._coincident(160)
        view = octree_tree_view(_octree(x, m, order=order, bits=3))
        fl, lists = self._check(view, x, group_size, view.exact_bodies)
        assert lists.exact_groups.size > 0
        assert fl.n_two_sided > 0
        self._check(view, x, group_size, None)  # buckets left out

    @pytest.mark.parametrize("group_size", [1, 7, 32])
    @pytest.mark.parametrize("order", [1, 2])
    def test_octree(self, small_cloud, group_size, order):
        x, m = small_cloud.x, small_cloud.m
        view = octree_tree_view(_octree(x, m, order=order))
        fl, _ = self._check(view, x, group_size, view.exact_bodies)
        assert fl.n_two_sided > 0 and fl.n_one_sided > 0

    @pytest.mark.parametrize("group_size", [1, 7, 32])
    @pytest.mark.parametrize("order", [1, 2])
    def test_bvh(self, small_cloud, group_size, order):
        bvh = build_bvh(small_cloud.x, small_cloud.m, order=order)
        fl, _ = self._check(bvh_tree_view(bvh), small_cloud.x,
                            group_size, None)
        assert fl.n_two_sided > 0 and fl.n_one_sided > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_tiny(self, rng, n, alg):
        x = rng.random((n, 3))
        m = rng.random(n) + 0.1
        if alg == "bvh":
            view = bvh_tree_view(build_bvh(x, m))
        else:
            view = octree_tree_view(_octree(x, m))
        for group_size in (1, 2):
            self._check(view, x, group_size, view.exact_bodies)

    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_group_with_empty_direct_list(self, small_cloud, alg):
        """Strip one group's direct entries: its rows meet no run, and
        every pair naming them from other groups loses its mirror."""
        x, m = small_cloud.x, small_cloud.m
        if alg == "bvh":
            view = bvh_tree_view(build_bvh(x, m))
        else:
            view = octree_tree_view(_octree(x, m))
        lists, groups, body_ids = self._lists(view, x, 16)
        g = groups.n_groups // 2
        sl = lists.group_entries(g)
        keep = np.ones(lists.n_entries, dtype=bool)
        keep[sl] = lists.approx[sl]
        counts = np.diff(lists.offsets)
        counts[g] = int(keep[sl].sum())
        offsets = np.zeros_like(lists.offsets)
        np.cumsum(counts, out=offsets[1:])
        stripped = dataclasses.replace(
            lists, offsets=offsets, nodes=lists.nodes[keep],
            approx=lists.approx[keep])
        assert stripped.direct_leaves(g).size == 0
        fl = self._assert_matches(view, stripped, groups, body_ids,
                                  view.exact_bodies)
        rows_g = np.arange(groups.offsets[g], groups.offsets[g + 1])
        s_t, s_s = _block_pairs(fl, MUTUAL_KINDS)
        _, o_s = _block_pairs(fl, ("one",))
        assert not np.isin(s_t, rows_g).any()
        assert not np.isin(s_s, rows_g).any()
        assert np.isin(o_s, rows_g).any()


class TestStructureCache:
    def test_flat_lists_cached_and_reused(self, small_cloud, soft_gravity):
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        cache: dict = {}
        a1 = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                small_cloud.m, soft_gravity, group_size=16,
                                eval_mode="flat", cache=cache)
        (entry,) = cache.values()
        first = entry["flat"]
        a2 = tree_accelerations(bvh_tree_view(bvh), small_cloud.x,
                                small_cloud.m, soft_gravity, group_size=16,
                                eval_mode="flat", cache=cache)
        assert entry["flat"] is first  # no per-step rebuild
        assert np.array_equal(a1, a2)

    def test_invalidated_with_lists(self, small_cloud, soft_gravity):
        """The maintainer drops the whole entry on rebuild; a fresh
        entry dict must trigger a flat rebuild, not a stale reuse."""
        bvh = build_bvh(small_cloud.x, small_cloud.m)
        cache: dict = {}
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           soft_gravity, group_size=16, eval_mode="flat",
                           cache=cache)
        (entry,) = cache.values()
        first = entry["flat"]
        cache.clear()  # what the maintainer does on rebuild
        tree_accelerations(bvh_tree_view(bvh), small_cloud.x, small_cloud.m,
                           soft_gravity, group_size=16, eval_mode="flat",
                           cache=cache)
        (entry2,) = cache.values()
        assert entry2["flat"] is not first

    def test_refit_epoch_reuses_flat_lists(self):
        """Refit rewrites com/mass but not topology: the flat index
        arrays survive the epoch and the trajectory stays sane."""
        s = galaxy_collision(400, seed=5)
        sim = Simulation(s, SimulationConfig(
            algorithm="bvh", traversal="grouped", eval_mode="flat",
            tree_update="refit", group_size=16))
        rep = sim.run(6)
        totals = rep.counters.total().as_dict()
        assert totals["flat_launches"] > 0
        assert totals["near_pairs_evaluated"] > 0
        assert totals["near_pairs_naive"] > totals["near_pairs_evaluated"]
        assert np.all(np.isfinite(s.x)) and np.all(np.isfinite(s.v))


class TestDistributed:
    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_ranks2_local_force_runs_n3l_blocks(self, alg, monkeypatch):
        """At ranks=2 ``auto`` is flat: each rank's local force prepares
        two-sided near-field blocks, the cross-rank halos (foreign
        targets) one-sided ones only, and the local two-sided blocks
        scatter equal and opposite impulses."""
        import repro.traversal.flat as flat_mod

        seen = []
        evaluate = flat_mod.evaluate_flat

        def spy(view, flat, x_sorted, **kw):
            seen.append((view, flat, np.array(x_sorted), kw))
            return evaluate(view, flat, x_sorted, **kw)

        monkeypatch.setattr(flat_mod, "evaluate_flat", spy)
        s = galaxy_collision(600, seed=5)
        _forces(s, algorithm=alg, traversal="dual", ranks=2)
        local = [c for c in seen if c[3]["m_sorted"] is not None]
        halo = [c for c in seen if c[3]["m_sorted"] is None]
        assert local and len(halo) == len(local)  # one halo per rank
        for _, fl, _, _ in halo:
            assert {b.kind for b in fl.buckets} <= {"node", "leaf"}
            assert fl.n_two_sided == 0
        for view, fl, xs, kw in local:
            kinds = {b.kind for b in fl.buckets}
            assert "two" in kinds and "leaf" not in kinds
            two_only = dataclasses.replace(
                fl, buckets=[b for b in fl.buckets if b.kind in MUTUAL_KINDS],
                _scratch={})
            m = kw["m_sorted"]
            acc, _ = evaluate(view, two_only, xs, G=1.0, eps2=kw["eps2"],
                              m_sorted=m)
            assert np.any(acc != 0.0)
            net = (m[:, None] * acc).sum(axis=0)
            scale = np.abs(m[:, None] * acc).sum(axis=0).max()
            assert np.all(np.abs(net) < 1e-12 * scale)

    @pytest.mark.parametrize("alg", ["bvh", "octree"])
    def test_ranks2_flat_matches_tile(self, alg):
        s = galaxy_collision(500, seed=3)
        tile, _ = _forces(s, algorithm=alg, traversal="grouped",
                          eval_mode="tile", ranks=2)
        flat, _ = _forces(s, algorithm=alg, traversal="grouped",
                          eval_mode="flat", ranks=2)
        assert relative_l2_error(flat, tile) < RTOL
