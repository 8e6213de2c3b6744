"""Local expansions (M2L / L2L / L2P): convergence, shift exactness.

The contracts under test:

* the order-``k`` series of the softened monopole field converges at
  O((|delta| / r)^(k+1)) — each order buys roughly one decade at
  ``|delta| / r = 0.1``;
* L2L re-centring is exact at the stored order (shifting then
  evaluating equals evaluating the original series at the same point);
* the packed M2L (unique Jacobian / third-derivative columns) is
  bitwise equal to the full-tensor einsum formulation it replaced,
  kept below as a test-only oracle;
* the downsweep's ``stdpar`` path matches the serial sweep bitwise;
* the flop/word accountants grow monotonically with order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.bvh.layout import BVHLayout
from repro.physics import local_expansion
from repro.physics.gravity import GravityParams
from repro.physics.local_expansion import (
    LocalExpansion,
    expansion_words,
    l2_flops,
    l2l_shift,
    l2l_sweep,
    l2p_evaluate,
    m2l_accumulate,
    m2l_flops,
    scatter_add,
)
from repro.physics.multipole import quadrupole_accel
from repro.stdpar.context import ExecutionContext
from repro.traversal import dual as dual_module
from repro.traversal import tree_accelerations
from repro.types import FLOAT, INDEX
from repro.workloads import plummer_sphere


def einsum_m2l(exp, far_t, far_s, com, mass, center, *, G=1.0, eps2=0.0,
               quad=None):
    """Oracle: the full-tensor M2L (broadcast einsums, one scatter per
    tensor) that the packed-column ``m2l_accumulate`` replaced."""
    if far_t.size == 0:
        return 0
    d = com[far_s] - center[far_t]
    r2 = np.einsum("kj,kj->k", d, d) + eps2
    inv_r3 = r2 ** -1.5
    w = G * mass[far_s] * inv_r3
    a0_terms = w[:, None] * d
    quad_terms = 0
    if quad is not None:
        a0_terms += quadrupole_accel(d, r2, quad[far_s], G)
        quad_terms = int(far_t.shape[0])
    scatter_add(exp.a0, far_t, a0_terms)
    if exp.jac is not None:
        dim = d.shape[1]
        inv_r5 = inv_r3 / r2
        jac_terms = (3.0 * G * mass[far_s] * inv_r5)[:, None, None] \
            * np.einsum("ki,kj->kij", d, d)
        jac_terms -= (G * mass[far_s] * inv_r3)[:, None, None] * np.eye(dim)
        scatter_add(exp.jac, far_t, jac_terms)
        if exp.hess is not None:
            inv_r7 = inv_r5 / r2
            eye = np.eye(dim)
            hess_terms = (15.0 * G * mass[far_s] * inv_r7)[:, None, None, None] \
                * np.einsum("ki,kj,kl->kijl", d, d, d)
            w5 = (3.0 * G * mass[far_s] * inv_r5)
            hess_terms -= w5[:, None, None, None] * (
                np.einsum("ij,kl->kijl", eye, d)
                + np.einsum("il,kj->kijl", eye, d)
                + np.einsum("jl,ki->kijl", eye, d)
            )
            scatter_add(exp.hess, far_t, hess_terms)
    return quad_terms


def point_accel(x, src, mass, *, G=1.0, eps2=0.0):
    """Exact softened monopole field of point sources at rows of *x*."""
    d = src[None, :, :] - x[:, None, :]
    r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
    w = G * mass * r2 ** -1.5
    return np.einsum("ij,ijk->ik", w, d)


def series_at(sources, masses, center, deltas, order, *, eps2=0.0):
    """Build the order-*order* expansion at *center*, evaluate at
    ``center + deltas``."""
    k = sources.shape[0]
    exp = LocalExpansion.zeros(1, 3, order=order)
    m2l_accumulate(
        exp,
        np.zeros(k, dtype=INDEX),
        np.arange(k, dtype=INDEX),
        sources, masses, center[None, :], eps2=eps2,
    )
    rows = np.zeros(deltas.shape[0], dtype=INDEX)
    return l2p_evaluate(exp, rows, center[None, :] + deltas, center[None, :])


class TestM2LConvergence:
    @pytest.mark.parametrize("eps2", [0.0, 0.01])
    def test_order_ladder(self, eps2):
        """Truncation error drops ~an order of magnitude per order at
        |delta|/r = 0.1."""
        rng = np.random.default_rng(3)
        sources = np.array([4.0, 0.5, -0.3]) + 0.2 * rng.standard_normal((6, 3))
        masses = rng.random(6) + 0.5
        center = np.zeros(3)
        deltas = 0.4 * (rng.random((64, 3)) - 0.5)  # |delta| <~ 0.35, r ~ 4
        exact = point_accel(center + deltas, sources, masses, eps2=eps2)
        scale = np.abs(exact).max()
        errs = []
        for order in (0, 1, 2):
            approx = series_at(sources, masses, center, deltas, order,
                               eps2=eps2)
            errs.append(np.abs(approx - exact).max() / scale)
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] < 0.3 * errs[0]
        assert errs[2] < 0.3 * errs[1]
        assert errs[2] < 1e-3

    def test_exact_at_center(self):
        """Every order reproduces the field exactly at delta = 0."""
        rng = np.random.default_rng(5)
        sources = rng.random((4, 3)) + 3.0
        masses = rng.random(4) + 0.1
        center = np.array([0.2, -0.1, 0.4])
        exact = point_accel(center[None, :], sources, masses)
        for order in (0, 1, 2):
            approx = series_at(sources, masses, center,
                               np.zeros((1, 3)), order)
            assert np.allclose(approx, exact, rtol=1e-13, atol=1e-15)

    def test_error_scaling_with_delta(self):
        """Order-2 error falls ~8x when |delta| halves (cubic term)."""
        rng = np.random.default_rng(11)
        sources = np.array([5.0, 0.0, 0.0]) + 0.1 * rng.standard_normal((3, 3))
        masses = np.ones(3)
        center = np.zeros(3)
        direction = np.array([[0.6, 0.5, -0.62]])
        errs = []
        for h in (0.5, 0.25):
            deltas = h * direction
            exact = point_accel(center + deltas, sources, masses)
            approx = series_at(sources, masses, center, deltas, 2)
            errs.append(np.abs(approx - exact).max())
        assert errs[1] < errs[0] / 6.0

    def test_hessian_symmetry(self):
        """The third-derivative tensor is exactly symmetric in (i, j) and
        symmetric to round-off in the other index pairs (``(d_i d_j)
        d_l`` and ``(d_l d_j) d_i`` may differ in the last bit)."""
        rng = np.random.default_rng(2)
        sources = rng.random((5, 3)) + 2.0
        masses = rng.random(5) + 0.1
        exp = LocalExpansion.zeros(1, 3, order=2)
        m2l_accumulate(exp, np.zeros(5, dtype=INDEX),
                       np.arange(5, dtype=INDEX),
                       sources, masses, np.zeros((1, 3)))
        h = exp.hess[0]
        assert np.array_equal(h, np.transpose(h, (1, 0, 2)))
        tol = 1e-14 * np.abs(h).max()
        assert np.allclose(h, np.transpose(h, (2, 1, 0)), rtol=0, atol=tol)
        assert np.allclose(h, np.transpose(h, (0, 2, 1)), rtol=0, atol=tol)


def _far_pairs(rng, n_targets, k, dim, n_sources=200):
    far_t = np.sort(rng.integers(0, n_targets, k)).astype(INDEX)
    far_s = rng.integers(0, n_sources, k).astype(INDEX)
    com = 3.0 * rng.standard_normal((n_sources, dim))
    mass = rng.random(n_sources)
    center = rng.random((n_targets, dim))
    quad = rng.standard_normal((n_sources, dim, dim)) * 1e-3
    quad = quad + quad.transpose(0, 2, 1)
    return (far_t, far_s, com, mass, center), quad


class TestPackedM2L:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("with_quad", [False, True])
    def test_bitwise_equal_to_einsum_oracle(self, order, dim, with_quad):
        """Same bytes as the full-tensor formulation, at a G != 1 (which
        catches a reassociated weight) and a softened kernel."""
        rng = np.random.default_rng(7 + dim)
        n_targets = 30
        args, quad = _far_pairs(rng, n_targets, 1500, dim)
        quad = quad if with_quad else None
        got = LocalExpansion.zeros(n_targets, dim, order=order)
        want = LocalExpansion.zeros(n_targets, dim, order=order)
        n_got = m2l_accumulate(got, *args, G=0.7, eps2=2e-3, quad=quad)
        n_want = einsum_m2l(want, *args, G=0.7, eps2=2e-3, quad=quad)
        assert n_got == n_want
        for name in ("a0", "jac", "hess"):
            g, w = getattr(got, name), getattr(want, name)
            assert (g is None) == (w is None)
            if g is not None:
                assert np.any(g != 0.0)
                assert g.tobytes() == w.tobytes(), name

    def test_dual_force_bitwise_with_oracle(self, monkeypatch):
        """A BVH dual evaluation is byte-identical with the einsum M2L
        patched in."""
        s = plummer_sphere(600, seed=4)
        bvh = build_bvh(s.x, s.m, order=2)
        params = GravityParams(G=0.7, softening=0.05)

        def dual_acc():
            return tree_accelerations(
                bvh_tree_view(bvh), s.x, s.m, params, traversal="dual",
                theta=0.5, group_size=16, cc_mac=1.5, expansion_order=2)

        got = dual_acc()
        calls = []

        def oracle(*a, **kw):
            calls.append(a[1].size)
            return einsum_m2l(*a, **kw)

        monkeypatch.setattr(dual_module, "m2l_accumulate", oracle)
        want = dual_acc()
        assert calls and calls[0] > 0
        assert got.tobytes() == want.tobytes()


class TestM2LScatter:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_bincount_matches_add_at_bitwise(self, order, monkeypatch):
        """The M2L scatter sums in ``np.add.at``'s order: bitwise equal
        to it on the zero expansion the dual evaluator starts from."""
        rng = np.random.default_rng(3)
        n_targets, k, dim = 40, 900, 3
        far_t = np.sort(rng.integers(0, n_targets, k)).astype(INDEX)
        far_s = rng.integers(0, 200, k).astype(INDEX)
        com = rng.random((200, dim)) + 2.0
        mass = rng.random(200)
        center = rng.random((n_targets, dim))
        quad = rng.standard_normal((200, dim, dim)) * 1e-3
        quad = quad + quad.transpose(0, 2, 1)
        args = (far_t, far_s, com, mass, center)
        got = LocalExpansion.zeros(n_targets, dim, order=order)
        m2l_accumulate(got, *args, eps2=1e-3, quad=quad)
        # Oracle: the same terms, each scattered with np.add.at.
        monkeypatch.setattr(local_expansion, "scatter_add", np.add.at)
        want = LocalExpansion.zeros(n_targets, dim, order=order)
        m2l_accumulate(want, *args, eps2=1e-3, quad=quad)
        for name in ("a0", "jac", "hess"):
            g, w = getattr(got, name), getattr(want, name)
            assert (g is None) == (w is None)
            if g is not None:
                assert np.any(g != 0.0)
                assert g.tobytes() == w.tobytes(), name


class TestL2L:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_shift_is_exact_at_stored_order(self, order):
        """Parent series shifted to a child centre evaluates identically
        to the parent series at the same physical point."""
        rng = np.random.default_rng(17)
        sources = rng.random((6, 3)) + 4.0
        masses = rng.random(6) + 0.2
        center = np.zeros((2, 3), dtype=FLOAT)
        center[1] = [0.2, -0.15, 0.1]
        exp = LocalExpansion.zeros(2, 3, order=order)
        m2l_accumulate(exp, np.zeros(6, dtype=INDEX),
                       np.arange(6, dtype=INDEX),
                       sources, masses, center)
        l2l_shift(exp, np.array([0]), np.array([1]), center)
        x = center[1] + 0.05 * (rng.random((16, 3)) - 0.5)
        via_parent = l2p_evaluate(exp, np.zeros(16, dtype=INDEX), x,
                                  center)
        via_child = l2p_evaluate(exp, np.ones(16, dtype=INDEX), x,
                                 center)
        assert np.allclose(via_child, via_parent, rtol=1e-12, atol=1e-14)

    def test_sweep_matches_serial(self):
        """stdpar downsweep == serial downsweep, bitwise."""
        layout = BVHLayout(8)
        rng = np.random.default_rng(23)
        center = rng.standard_normal((layout.n_nodes, 3))
        a0 = rng.standard_normal((layout.n_nodes, 3))
        jac = rng.standard_normal((layout.n_nodes, 3, 3))
        hess = rng.standard_normal((layout.n_nodes, 3, 3, 3))
        serial = LocalExpansion(a0.copy(), jac.copy(), hess.copy())
        par = LocalExpansion(a0.copy(), jac.copy(), hess.copy())
        n1 = l2l_sweep(serial, layout, center)
        n2 = l2l_sweep(par, layout, center, ctx=ExecutionContext())
        assert n1 == n2 == layout.n_nodes - 1
        assert np.array_equal(serial.a0, par.a0)
        assert np.array_equal(serial.jac, par.jac)
        assert np.array_equal(serial.hess, par.hess)


class TestAccounting:
    def test_expansion_words_monotone(self):
        assert expansion_words(3, 0) == 3
        assert expansion_words(3, 1) == 12
        assert expansion_words(3, 2) == 39
        assert expansion_words(2, 2) == 2 + 4 + 8

    def test_flops_monotone(self):
        assert m2l_flops(3, 0) < m2l_flops(3, 1) < m2l_flops(3, 2)
        assert l2_flops(0) < l2_flops(1) < l2_flops(2)
