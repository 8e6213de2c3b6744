"""Tests for the Skilling Hilbert-curve transform.

The two load-bearing properties: the mapping is a bijection (sorting by
it is a total order on grid cells) and consecutive indices are
grid-adjacent (the locality that makes the BVH's pairwise aggregation
spatially meaningful).  The encoder itself runs Skilling's transform on
masks and per-axis columns; :func:`_skilling_encode` below is the
algorithm's conditional loop, one conditional per axis and bit, kept as its
oracle: the two must agree key for key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.hilbert import (
    axes_to_transpose,
    hilbert_decode,
    hilbert_encode,
    transpose_to_axes,
)


_U = np.uint64


def _skilling_encode(grid: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's AxesToTranspose as written — ``where`` per axis and
    bit over strided columns — then one key bit per pass."""
    x = np.asarray(grid, dtype=np.uint64).copy()
    n, dim = x.shape
    q = 1 << (bits - 1)
    while q > 1:
        p, qq = _U(q - 1), _U(q)
        for i in range(dim):
            hi = (x[:, i] & qq) != 0
            x[:, 0] ^= np.where(hi, p, _U(0))
            t = np.where(hi, _U(0), (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= t
            x[:, i] ^= t
        q >>= 1
    for i in range(1, dim):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = 1 << (bits - 1)
    while q > 1:
        t ^= np.where((x[:, dim - 1] & _U(q)) != 0, _U(q - 1), _U(0))
        q >>= 1
    x ^= t[:, None]
    key = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        for i in range(dim):
            key |= ((x[:, i] >> _U(b)) & _U(1)) << _U(b * dim + dim - 1 - i)
    return key


class TestMatchesSkillingLoop:
    @pytest.mark.parametrize("dim,bits", [(3, 21), (3, 10), (3, 2), (3, 1),
                                          (2, 31), (2, 5), (2, 1)])
    def test_keys_bit_for_bit(self, rng, dim, bits):
        g = rng.integers(0, 1 << bits, size=(2000, dim)).astype(np.uint64)
        g[:4] = 0
        g[4:8] = (1 << bits) - 1  # every bit set on every axis
        assert np.array_equal(hilbert_encode(g, bits),
                              _skilling_encode(g, bits))

    @given(st.integers(0, 2**21 - 1), st.integers(0, 2**21 - 1),
           st.integers(0, 2**21 - 1))
    @settings(max_examples=100, deadline=None)
    def test_keys_property_3d(self, x, y, z):
        g = np.array([[x, y, z]], dtype=np.uint64)
        assert np.array_equal(hilbert_encode(g, 21), _skilling_encode(g, 21))


class TestRoundTrip:
    @pytest.mark.parametrize("dim,bits", [(2, 1), (2, 4), (2, 16), (2, 31),
                                          (3, 1), (3, 5), (3, 12), (3, 21)])
    def test_encode_decode_roundtrip(self, rng, dim, bits):
        g = rng.integers(0, 1 << bits, size=(300, dim)).astype(np.uint64)
        keys = hilbert_encode(g, bits)
        assert np.array_equal(hilbert_decode(keys, bits, dim), g)

    @pytest.mark.parametrize("dim,bits", [(2, 6), (3, 4)])
    def test_transpose_roundtrip(self, rng, dim, bits):
        g = rng.integers(0, 1 << bits, size=(100, dim)).astype(np.uint64)
        t = axes_to_transpose(g, bits)
        assert np.array_equal(transpose_to_axes(t, bits), g)

    @given(st.integers(0, 2**21 - 1), st.integers(0, 2**21 - 1), st.integers(0, 2**21 - 1))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property_3d(self, x, y, z):
        g = np.array([[x, y, z]], dtype=np.uint64)
        assert np.array_equal(hilbert_decode(hilbert_encode(g, 21), 21, 3), g)


class TestCurveProperties:
    @pytest.mark.parametrize("dim,bits", [(2, 2), (2, 4), (2, 5), (3, 2), (3, 3)])
    def test_adjacency(self, dim, bits):
        """Consecutive Hilbert indices map to cells one grid step apart
        (the defining locality property of the curve)."""
        n = 1 << (bits * dim)
        keys = np.arange(n, dtype=np.uint64)
        pts = hilbert_decode(keys, bits, dim).astype(np.int64)
        manhattan = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        assert (manhattan == 1).all()

    @pytest.mark.parametrize("dim,bits", [(2, 4), (3, 3)])
    def test_bijection_full_grid(self, dim, bits):
        n = 1 << (bits * dim)
        keys = np.arange(n, dtype=np.uint64)
        pts = hilbert_decode(keys, bits, dim)
        # every grid cell exactly once
        flat = pts[:, 0]
        for d in range(1, dim):
            flat = flat * np.uint64(1 << bits) + pts[:, d]
        assert len(np.unique(flat)) == n

    def test_curve_starts_at_origin(self):
        pts = hilbert_decode(np.array([0], dtype=np.uint64), 4, 2)
        assert (pts == 0).all()

    def test_keys_fit_bits(self, rng):
        bits, dim = 5, 3
        g = rng.integers(0, 1 << bits, size=(200, dim)).astype(np.uint64)
        keys = hilbert_encode(g, bits)
        assert (keys < (1 << (bits * dim))).all()

    def test_locality_better_than_row_major(self, rng):
        """Average index distance of spatially-close cells is smaller
        along the Hilbert curve than in row-major order — the reason
        HILBERTSORT exists."""
        bits, dim = 5, 2
        side = 1 << bits
        g = rng.integers(0, side - 1, size=(400, dim)).astype(np.uint64)
        neighbor = g.copy()
        neighbor[:, 0] += 1  # one step in x
        h = hilbert_encode(g, bits).astype(np.int64)
        hn = hilbert_encode(neighbor, bits).astype(np.int64)
        rm = (g[:, 1] * side + g[:, 0]).astype(np.int64)
        rmn = (neighbor[:, 1] * side + neighbor[:, 0]).astype(np.int64)
        assert np.median(np.abs(h - hn)) <= np.median(np.abs(rm - rmn))


class TestValidation:
    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.array([[16, 0]], dtype=np.uint64), 4)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.zeros((3, 4), dtype=np.uint64), 4)

    def test_bits_too_large(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.zeros((3, 3), dtype=np.uint64), 22)

    def test_decode_requires_1d(self):
        with pytest.raises(ValueError):
            hilbert_decode(np.zeros((2, 3), dtype=np.uint64), 4, 3)
