"""The batch kernel's previous form, kept as a test-only oracle.

:func:`reference_eval_buckets` is :func:`repro.traversal.flat.
_eval_buckets` as it was before the kernel went dimension-major:
point-major ``(.., dim)`` operands, the explicit-difference path of
:data:`~repro.traversal.flat.CANCEL` evaluated chunk by chunk, and
masses gathered and counted per chunk.  The production kernel keeps
the same buckets and summation orders, but its BLAS products take
transposed operands, for which BLAS may pick other micro-kernels: its
accelerations must match this one to 1e-15 relative L2, and its
``interactions`` and ``quad_terms`` exactly.
"""

from __future__ import annotations

import numpy as np

from repro.physics.local_expansion import scatter_add
from repro.physics.multipole import quadrupole_accel
from repro.traversal.flat import (
    BODY_KINDS,
    CANCEL,
    CHUNK_SLOTS,
    MUTUAL_KINDS,
    QUAD_SLOTS,
    FlatLists,
)
from repro.types import FLOAT


def reference_eval_buckets(view, flat: FlatLists, x_sorted, m_sorted, G,
                           eps2):
    """``(acc, interactions, quad_terms)`` of every bucket's pull."""
    x_sorted = np.asarray(x_sorted, dtype=FLOAT)
    n, dim = x_sorted.shape
    com, quad = view.com, view.quad
    nn = com.shape[0]
    lo = x_sorted.min(axis=0)
    hi = x_sorted.max(axis=0)
    x_ext = np.empty((n + 2, dim))
    x_ext[:n] = x_sorted
    x_ext[n] = lo - (hi - lo) - 1.0
    x_ext[n + 1] = hi + (hi - lo) + 1.0
    gm_ext = np.zeros(n + 2)
    if m_sorted is not None:
        np.multiply(np.asarray(m_sorted, dtype=FLOAT), G, out=gm_ext[:n])
    com_ext = np.empty((nn + 1, dim))
    com_ext[:nn] = com
    com_ext[nn] = x_ext[n + 1]
    gme = np.empty(nn + 1)
    np.multiply(view.mass, G, out=gme[:nn])
    gme[nn] = 0.0
    quad_ext = None
    if quad is not None:
        quad_ext = np.empty((nn + 1, dim, dim))
        quad_ext[:nn] = quad
        quad_ext[nn] = 0.0
    out = np.empty((flat.targets.size, dim))
    o = 0
    near_t: list = []
    near_a: list = []
    nonzero = quad_terms = 0
    for bucket in flat.buckets:
        kind = bucket.kind
        direct = kind != "node"
        mutual = kind in MUTUAL_KINDS
        src_x, src_m = ((x_ext, gm_ext) if kind in BODY_KINDS
                        else (com_ext, gme))
        gb, K = bucket.col_mat.shape
        B = bucket.row_mat.shape[1]
        BK = B * K
        gc = min(gb, max(1, CHUNK_SLOTS // BK))
        P = np.empty((gc, B, K))
        S = np.empty((gc, B, K))
        X = np.empty((gc, B, dim))
        Y = np.empty((gc, K, dim))
        M = np.empty((gc, K))
        XA = np.empty((gc, B, dim + 2))
        YA = np.empty((gc, K, dim + 2))
        SY = np.empty((gc, K, dim + 1))
        F = np.empty((gc, B, dim + 1))
        XA[..., dim + 1] = 1.0
        YA[..., dim] = 1.0
        if mutual:
            MI = np.empty((gc, B))
            SX = np.empty((gc, B, dim + 1))
            R = np.empty((gc, K, dim + 1))
        tri = np.tri(B, K, dtype=bool) if kind == "tri" else None
        slots = bucket.self_slots
        qsub = 0
        if quad_ext is not None and kind == "node":
            qsub = max(1, QUAD_SLOTS // BK)
            quad_terms += bucket.n_real
        o_rows = o
        o_cols = o = o + gb * B
        if mutual:
            o += gb * K
        for c0 in range(0, gb, gc):
            c1 = min(gb, c0 + gc)
            g = c1 - c0
            rm = bucket.row_mat[c0:c1]
            cm = bucket.col_mat[c0:c1]
            nr = bucket.n_rows[c0:c1]
            nc = bucket.n_cols[c0:c1]
            Xg, Yg, Mg, Pg = X[:g], Y[:g], M[:g], P[:g]
            xa, ya = XA[:g], YA[:g]
            np.take(x_ext, rm, axis=0, out=Xg)
            np.take(src_x, cm, axis=0, out=Yg)
            np.take(src_m, cm, out=Mg)
            ctr = Xg[:, :1].copy()
            Xg -= ctr
            Yg -= ctr
            x2 = xa[..., dim]
            y2 = ya[..., dim + 1]
            np.einsum("gbj,gbj->gb", Xg, Xg, out=x2)
            np.einsum("gkj,gkj->gk", Yg, Yg, out=y2)
            thr = 0.0
            if direct:
                ext = np.where(np.arange(B) < nr[:, None], x2, 0.0).max(1)
                thr = (CANCEL * ext)[:, None, None]
            x2 += eps2
            xa[..., :dim] = Xg
            np.multiply(Yg, -2.0, out=ya[..., :dim])
            np.matmul(xa, ya.transpose(0, 2, 1), out=Pg)
            if tri is not None:
                np.copyto(Pg, np.inf, where=tri)
            own = None
            if slots is not None:
                j0, j1 = np.searchsorted(slots, (c0 * BK, c1 * BK))
                own = slots[j0:j1] - c0 * BK
                Pg.reshape(-1)[own] = np.inf
            if mutual:
                np.take(src_m, rm, out=MI[:g])
            hm = Pg <= thr
            if hm.any():
                hit = np.flatnonzero(hm)
                Pg.reshape(-1)[hit] = np.inf
                gi, rest = np.divmod(hit, BK)
                bi, ki = np.divmod(rest, K)
                ti, si = rm[gi, bi], cm[gi, ki]
                d = src_x[si] - x_ext[ti]
                r2 = np.einsum("ij,ij->i", d, d)
                r2 += eps2
                zero = r2 <= 0.0
                r2[zero] = np.inf
                w = r2 ** -1.5
                near_t.append(ti)
                near_a.append(d * (w * src_m[si])[:, None])
                if mutual:
                    near_t.append(si)
                    near_a.append(d * -(w * gm_ext[ti])[:, None])
                zero &= (bi < nr[gi]) & (ki < nc[gi])
                nonzero -= int(np.count_nonzero(src_m[si[zero]]))
                if mutual:
                    nonzero -= int(np.count_nonzero(gm_ext[ti[zero]]))
            np.sqrt(Pg, out=S[:g])
            Pg *= S[:g]
            np.reciprocal(Pg, out=Pg)
            mc = np.count_nonzero(Mg, axis=1)
            nonzero += int(((nr - 1) if kind == "tri" else nr) @ mc)
            if kind == "two":
                nonzero += int(nc @ np.count_nonzero(MI[:g], axis=1))
            if own is not None:
                nonzero -= int(np.count_nonzero(Mg[own // BK, own % K]))
            sy = SY[:g]
            np.multiply(Yg, Mg[..., None], out=sy[..., :dim])
            sy[..., dim] = Mg
            Fg = F[:g]
            Ag = out[o_rows + c0 * B:o_rows + c1 * B].reshape(g, B, dim)
            np.matmul(Pg, sy, out=Fg)
            np.multiply(Xg, Fg[..., dim:], out=Ag)
            np.subtract(Fg[..., :dim], Ag, out=Ag)
            for q0 in range(0, g, qsub) if qsub else ():
                q1 = min(g, q0 + qsub)
                bq = int(nr[q0:q1].max())
                kq = int(nc[q0:q1].max())
                dq = Yg[q0:q1, None, :kq] - Xg[q0:q1, :bq, None]
                r2q = np.einsum("gbkj,gbkj->gbk", dq, dq)
                r2q += eps2
                qt = np.broadcast_to(quad_ext[cm[q0:q1, :kq]][:, None],
                                     dq.shape + (dim,))
                Ag[q0:q1, :bq] += quadrupole_accel(
                    dq.reshape(-1, dim), r2q.reshape(-1),
                    qt.reshape(-1, dim, dim), G,
                ).reshape(dq.shape).sum(axis=2)
            if mutual:
                sx, Rg = SX[:g], R[:g]
                ARg = out[o_cols + c0 * K:o_cols + c1 * K].reshape(g, K, dim)
                np.multiply(Xg, MI[:g, :, None], out=sx[..., :dim])
                sx[..., dim] = MI[:g]
                np.matmul(Pg.transpose(0, 2, 1), sx, out=Rg)
                np.multiply(Yg, Rg[..., dim:], out=ARg)
                np.subtract(Rg[..., :dim], ARg, out=ARg)
    acc = np.zeros((n + 2, dim), dtype=FLOAT)
    scatter_add(acc, flat.targets, out)
    if near_t:
        scatter_add(acc, np.concatenate(near_t), np.concatenate(near_a))
    return acc[:n], nonzero, quad_terms
