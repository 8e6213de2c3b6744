"""Generic group-coherent traversal engine (list build + tile eval).

The engine sees a tree only through a :class:`TreeView`: flat per-node
arrays (centre of mass, mass, squared MAC extent, stackless escape /
open pointers) plus a per-node *class*:

* ``KLASS_INTERNAL`` — test the MAC; accept (emit) or open;
* ``KLASS_POINT``    — leaf whose monopole is the exact interaction
  (single-body leaves in both trees); always emitted;
* ``KLASS_EXACT``    — leaf that must be expanded body by body (octree
  bucket leaves); recorded separately for the caller to expand;
* ``KLASS_SKIP``     — contributes nothing (empty nodes); the subtree
  is skipped without emitting.

**List build** walks the tree once per group with the *conservative*
group MAC: a node is accepted only if ``size^2 < theta^2 * dmin^2``
where ``dmin`` is the distance from the node's centre of mass to the
nearest point of the group's AABB.  Every member body is at least
``dmin`` away, so group acceptance implies per-body acceptance — the
grouped traversal only ever *opens more* nodes than the per-body walk,
keeping the theta-controlled error bound.  At ``group_size=1`` the AABB
is the body itself and ``dmin`` equals the per-body distance bit for
bit, so the walk visits exactly the per-body node set.

The walk is the dual walk of :mod:`repro.traversal.dual` with the
cell-cell branch off, started at every group's leaf target: a
level-synchronous sweep over all groups at once (depth-many vectorized
rounds rather than walk-length-many), which is how the build stays
fast in numpy.  Since the accept/open decision at a node depends only
on the node and the group box — never on visit order — the visited set
equals the stackless DFS walk's; each group's emissions are then sorted
by the nodes' precomputed DFS-preorder rank, recovering the exact
per-body DFS emission order the lockstep walk accumulates in.

**Evaluation** has two forms:

* ``tile`` — turns each group's list into a dense ``group x node``
  tile, forms ``dvec = com - x`` explicitly and reduces the
  contributions sequentially along the (strided) list axis, which makes
  it bit-compatible with the per-body lockstep walk's accumulation
  order; the reference, used at ``group_size=1`` where exact equality
  is the contract.
* ``flat`` / ``gemm`` — :mod:`repro.traversal.flat`: the lists of
  *all* groups are prepared once per epoch as rectangle blocks (target
  rows x sources) and evaluated as a few large batch kernels with the
  ``x^2 + y^2 - 2 x.y`` algebra, so the hot reductions are BLAS
  matmuls.  ``flat`` dedupes the symmetric near field Newton's-third-law
  style, one tile per block serving both sides (the production host
  path, the ``auto`` default inside a ``Simulation``); ``gemm`` is the
  same kernel without the dedup: every list entry is a node source and
  each body's own point leaf is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import EVAL_MODES
from repro.geometry.aabb import AABB
from repro.machine.counters import Counters
from repro.physics.gravity import FLOPS_PER_INTERACTION, SPECIAL_PER_INTERACTION
from repro.physics.local_expansion import expansion_words, l2_flops, m2l_flops
from repro.physics.multipole import (
    QUAD_EXTRA_BYTES,
    QUAD_EXTRA_FLOPS,
    quadrupole_accel,
)
from repro.traversal.groups import BodyGroups
from repro.types import FLOAT, INDEX

KLASS_INTERNAL = 0
KLASS_POINT = 1
KLASS_EXACT = 2
KLASS_SKIP = 3

#: Escape pointer that ends a stackless walk (both trees' ``DONE``).
DONE = -1


def mac_threshold2(
    dmin2: np.ndarray, theta2: float, mac_margin: float
) -> np.ndarray:
    """Squared acceptance threshold of the (drift-bounded) MAC.

    A node is accepted when ``size^2 < mac_threshold2(...)``, i.e.
    ``size^2 < theta^2 * max(dmin - margin, 0)^2``.  The margin branch
    is the only place the hot loop needs a square root; at
    ``mac_margin == 0`` the threshold is just ``theta^2 * dmin2`` and
    the sqrt is skipped entirely.  The one list walk
    (:mod:`repro.traversal.dual`) evaluates every MAC through it —
    grouped, LET and dual builds alike — so all of them evaluate the
    same floating-point expression.
    """
    if mac_margin <= 0.0:
        return theta2 * dmin2
    dmin_eff = np.maximum(np.sqrt(dmin2) - mac_margin, 0.0)
    return theta2 * dmin_eff * dmin_eff


def sq_norm(v: np.ndarray, sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sum_d v[d]^2`` of axis-outermost *v* into *out* (*sq* is scratch
    of *v*'s shape, which may be *v* itself), in the order
    ``np.einsum("...j,...j")`` sums a point-major row — ``(v0^2 + v2^2)
    + v1^2`` in 3-D — so a squared distance is the einsum form's bit for
    bit."""
    np.multiply(v, v, out=sq)
    order = (0, 2, 1) if v.shape[0] == 3 else range(v.shape[0])
    first, *rest = order
    np.add(sq[first], sq[rest[0]], out=out)
    for d in rest[1:]:
        out += sq[d]
    return out


def aabb_dmin2(
    lo: np.ndarray, hi: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Squared distance from points *c* to their axis-aligned boxes.

    Operands are axis-outermost, ``(dim, k)`` each, so every pass runs
    over ``k`` contiguous values; the per-axis squares are summed in the
    fixed order of :func:`sq_norm` — the order ``np.einsum`` sums a
    point-major ``(k, dim)`` row — so the distance does not depend on
    the layout it was computed in.  For degenerate boxes (``lo == hi``)
    this is ``|c - lo|^2`` exactly, so the conservative group MAC
    coincides bit for bit with the per-body criterion at
    ``group_size=1``.
    """
    # c's offset from its nearest box point: lo - c below the box,
    # -(c - hi) above it, 0 inside; the sign drops out in the square.
    d = np.clip(c, lo, hi)
    d -= c
    return sq_norm(d, d, np.empty(d.shape[1:], dtype=d.dtype))


@dataclass(frozen=True)
class TreeView:
    """The per-node arrays the engine needs, independent of tree type."""

    com: np.ndarray          # (n_nodes, dim) centres of mass
    mass: np.ndarray         # (n_nodes,)
    size2: np.ndarray        # (n_nodes,) squared extent entering the MAC
    first_child: np.ndarray  # (n_nodes,) first child of each internal node
    #: Children per internal node (contiguous from ``first_child``):
    #: 2^dim for the octree, 2 for the BVH.
    branch: int
    klass: np.ndarray        # (n_nodes,) KLASS_* codes
    #: Body id of each KLASS_POINT leaf (-1 elsewhere), in the id space
    #: the evaluator's ``body_ids`` uses; lets the gemm kernel zero
    #: self-interactions.
    point_body: np.ndarray
    #: DFS-preorder rank of every node — orders each group's emissions
    #: the way the stackless per-body walk would emit them.
    dfs_rank: np.ndarray
    #: Stackless skip pointer of every node: the next node in DFS order
    #: once its subtree is done (paper Fig. 3's backward step; the BVH's
    #: multi-level skip-list jump), ``DONE`` after the last.  The
    #: lockstep walk (:mod:`repro.traversal.lockstep`) follows it.
    escape: np.ndarray
    quad: np.ndarray | None = None   # (n_nodes, 3, 3) at multipole order 2
    #: Bytes touched per node visit of the list-building walk.
    visit_bytes: float = 50.0
    #: Flops per node visit (MAC test + pointer step): 8 for the
    #: octree's cell-side MAC, 10 for the BVH's box-extent MAC.
    flops_per_visit: float = 8.0
    #: ``node -> body ids`` of a KLASS_EXACT bucket leaf, in the id space
    #: of the caller's body arrays; None for trees without buckets.
    exact_bodies: Callable[[int], list[int]] | None = None
    #: Curve order of the bodies when the tree fixes it (the BVH's leaf
    #: order; ``point_body`` then holds sorted rows).  None when the
    #: force driver sorts the bodies along the Hilbert curve over
    #: ``box`` itself (the octree; ``point_body`` holds body ids).
    body_order: np.ndarray | None = None
    box: AABB | None = None


def _no_pairs() -> np.ndarray:
    return np.empty(0, dtype=INDEX)


@dataclass
class InteractionLists:
    """Output of one list walk: per-group interaction lists, each in DFS
    visit order (CSR), plus the dual walk's far cell pairs (none at
    ``cc_mac = 0``, i.e. for the grouped traversal)."""

    offsets: np.ndarray       # (n_groups + 1,) into nodes/approx
    nodes: np.ndarray         # (n_entries,) emitted node ids
    #: True where the entry is an accepted internal node (the "approx"
    #: list); False where it is a direct leaf.
    approx: np.ndarray
    exact_groups: np.ndarray  # (n_exact,) group of each bucket hit
    exact_nodes: np.ndarray   # (n_exact,) bucket leaf node ids
    #: (n_groups,) walk length per group: the MAC tests at the group's
    #: leaf target plus the empty (``KLASS_SKIP``) children met there.
    steps: np.ndarray
    theta: float
    #: Opening-radius inflation the lists were built with (the
    #: drift-bounded MAC of repro.maintenance); 0 = the plain MAC.
    mac_margin: float = 0.0
    #: (n_far,) target-tree node and source node of every cell pair
    #: the walk retired via M2L, in deterministic accumulation order.
    far_t: np.ndarray = field(default_factory=_no_pairs)
    far_s: np.ndarray = field(default_factory=_no_pairs)
    #: The target tree over the groups (``repro.traversal.dual``).
    tt: object = None
    cc_mac: float = 0.0
    #: MAC tests charged to no group: those at internal targets and
    #: the leaf-target pairs retired as far (0 at ``cc_mac = 0``).
    cell_evals: int = 0

    @property
    def n_far(self) -> int:
        return int(self.far_t.shape[0])

    @property
    def mac_evals(self) -> int:
        """Every visit of the walk: what a list build is charged."""
        return int(self.steps.sum()) + self.cell_evals

    @property
    def n_groups(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n_entries(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_approx(self) -> int:
        return int(np.count_nonzero(self.approx))

    def group_entries(self, g: int) -> slice:
        return slice(int(self.offsets[g]), int(self.offsets[g + 1]))

    def approx_nodes(self, g: int) -> np.ndarray:
        """Accepted (monopole/multipole) nodes of group *g*."""
        sl = self.group_entries(g)
        return self.nodes[sl][self.approx[sl]]

    def direct_leaves(self, g: int) -> np.ndarray:
        """Directly-interacting leaf nodes of group *g*."""
        sl = self.group_entries(g)
        return self.nodes[sl][~self.approx[sl]]


def build_interaction_lists(
    view: TreeView, groups: BodyGroups, theta: float,
    *, cc_mac: float = 0.0, mac_margin: float = 0.0,
) -> InteractionLists:
    """Walk the tree once per group and emit its interaction lists.

    The walk is the dual walk (:func:`repro.traversal.dual.
    build_dual_lists`) over a target tree of *groups*.  At the default
    ``cc_mac=0`` (the grouped traversal) its cell-cell branch is off:
    one source walk per leaf target, i.e. per group, emissions sorted
    per group by DFS rank, no far pairs.  Groups must hold at least one
    body; the walk drops empty targets.

    *mac_margin* > 0 tightens acceptance to
    ``size^2 < theta^2 * max(dmin - margin, 0)^2`` — the drift-bounded
    MAC of :mod:`repro.maintenance`: as long as the accumulated body /
    centre-of-mass displacement since the lists were built stays within
    the margin (per node and group, tracked tightly rather than
    worst-case), every accepted node still satisfies the plain per-body
    MAC at the *current* positions, so cached lists remain provable
    supersets.  ``mac_margin=0`` is bit-identical to the plain MAC.
    """
    # Deferred import: the dual walk builds on the engine's structures.
    from repro.traversal.dual import build_dual_lists, build_target_tree

    tt = build_target_tree(groups, internal=cc_mac > 0.0)
    return build_dual_lists(view, tt, theta, cc_mac=cc_mac,
                            mac_margin=mac_margin)


def resolve_eval_mode(mode: str, groups: BodyGroups) -> str:
    """The evaluator ``eval_mode="auto"`` stands for.

    Tile for one-body groups, whose contract is bit-exactness with the
    lockstep walk; flat for every other group, cached or not.  Flat and
    gemm run the same block kernel, and flat wins the modeled seconds
    through its near-field dedup (Newton's third law); a caller without
    a structure cache — a rebuild-every-step rank — pays flat's block
    preparation on every call, which works on list entries and runs,
    never pairs.  Foreign targets switch the dedup off inside
    :func:`~repro.traversal.flat.build_flat_lists`, so cross-rank halos
    stay one-sided.  EXPERIMENTS.md compares both clocks.  Explicit
    modes pass through; unknown ones raise.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown eval mode {mode!r}")
    if mode != "auto":
        return mode
    return "tile" if groups.max_group_size <= 1 else "flat"


def evaluate_interaction_lists(
    view: TreeView,
    lists: InteractionLists,
    groups: BodyGroups,
    x_sorted: np.ndarray,
    *,
    G: float = 1.0,
    eps2: float = 0.0,
    body_ids: np.ndarray | None = None,
    mode: str = "auto",
    flat=None,
    m_sorted: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Evaluation of the cached lists at current positions.

    Returns accelerations in sorted-row order plus an eval-stats dict
    (``pairs`` evaluated, nonzero ``interactions``, ``quad_terms``,
    plus the flat-mode ``flat_launches`` / ``near_pairs_naive`` /
    ``near_pairs_evaluated``, zero for the tile and gemm forms).
    ``body_ids`` maps sorted rows into ``view.point_body``'s id space
    (identity when omitted); ``mode`` is ``"tile"`` (bit-compatible
    sequential reduction), ``"flat"`` (batch kernels with n3l
    near-field dedup — see :mod:`repro.traversal.flat`), ``"gemm"``
    (the same batches without the dedup), or ``"auto"`` (tile only for
    the degenerate one-body groups whose contract is exactness, flat
    otherwise — :func:`resolve_eval_mode`).
    *flat* is the per-epoch preparation (built on the fly when omitted
    — callers with a structure cache should pass it; gemm's is built
    with ``n3l=False``); *m_sorted* (masses in sorted-row order)
    enables the n3l dedup in flat mode.
    """
    x_sorted = np.asarray(x_sorted, dtype=FLOAT)
    n, dim = x_sorted.shape
    mode = resolve_eval_mode(mode, groups)

    if mode != "tile":
        # Deferred import: flat builds on the engine's data structures.
        from repro.traversal.flat import build_flat_lists, evaluate_flat
        if flat is None:
            flat = build_flat_lists(
                view, lists, groups, body_ids=body_ids,
                n3l=mode == "flat" and m_sorted is not None)
        acc, stats = evaluate_flat(view, flat, x_sorted,
                                   G=G, eps2=eps2, m_sorted=m_sorted)
        if mode == "gemm":
            # The modeled device kernel of gemm is the grouped tile,
            # charged through kernel_launches, not flat's batches.
            stats["flat_launches"] = 0
        return acc, stats

    acc = np.zeros((n, dim), dtype=FLOAT)
    off = lists.offsets
    go = groups.offsets
    com = view.com
    mass = view.mass
    quad = view.quad
    pairs = 0
    nonzero = 0
    quad_terms = 0
    # Hoisted once: item access on numpy scalars inside the loop is a
    # measurable share of small-group eval time.
    off_l = off.tolist()
    go_l = go.tolist()

    # Scratch pools sized for the largest tile, reused across groups;
    # flat (b*k) slices keep every view contiguous.
    bmax = groups.max_group_size
    kmax = int(np.diff(off).max(initial=0))
    cap = bmax * kmax
    dpool = np.empty((cap, dim), dtype=FLOAT)
    opool = np.empty((cap, dim), dtype=FLOAT)
    r2pool = np.empty(cap, dtype=FLOAT)
    cpool = np.empty(cap, dtype=FLOAT)
    wpool = np.empty(cap, dtype=FLOAT)
    mpool = np.empty(cap, dtype=bool)

    for g in range(groups.n_groups):
        lo_e, hi_e = off_l[g], off_l[g + 1]
        if hi_e == lo_e:
            continue
        nodes = lists.nodes[lo_e:hi_e]
        r0, r1 = go_l[g], go_l[g + 1]
        xg = x_sorted[r0:r1]
        b, k = r1 - r0, hi_e - lo_e
        bk = b * k
        cn = com[nodes]
        mn = mass[nodes]
        dvec = np.subtract(cn[None, :, :], xg[:, None, :],
                           out=dpool[:bk].reshape(b, k, dim))
        r2 = np.einsum("ij,ij->i", dpool[:bk], dpool[:bk],
                       out=r2pool[:bk]).reshape(b, k)
        r2c = np.add(r2, eps2, out=cpool[:bk].reshape(b, k))
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.power(r2c, -1.5, out=wpool[:bk].reshape(b, k))
            np.multiply(G * mn, w, out=w)
        np.less_equal(r2c, 0.0, out=mpool[:bk].reshape(b, k))
        np.copyto(w, 0.0, where=mpool[:bk].reshape(b, k))
        contrib = np.multiply(w[:, :, None], dvec,
                              out=opool[:bk].reshape(b, k, dim))
        if quad is not None:
            ap = lists.approx[lo_e:hi_e]
            kq = int(np.count_nonzero(ap))
            if kq:
                dq = dvec[:, ap, :].reshape(-1, dim)
                r2q = r2c[:, ap].reshape(-1)
                qt = np.broadcast_to(
                    quad[nodes[ap]], (b, kq, dim, dim)
                ).reshape(-1, dim, dim)
                contrib[:, ap, :] += quadrupole_accel(
                    dq, r2q, qt, G
                ).reshape(b, kq, dim)
                quad_terms += b * kq
        # The reduced axis is strided, so numpy accumulates it
        # sequentially — the same order as the lockstep rounds.
        np.sum(contrib, axis=1, out=acc[r0:r1])
        pairs += bk
        nonzero += int(np.count_nonzero(w))

    return acc, {"pairs": pairs, "interactions": nonzero,
                 "quad_terms": quad_terms, "flat_launches": 0,
                 "near_pairs_naive": 0, "near_pairs_evaluated": 0}


def account_grouped_force(
    counters: Counters,
    lists: InteractionLists,
    groups: BodyGroups,
    *,
    n_bodies: int,
    dim: int,
    pairs: int,
    quad_terms: int = 0,
    quad_far: int = 0,
    expansion_order: int = 1,
    visit_bytes: float = 50.0,
    built: bool = True,
    flops_per_visit: float = 8.0,
    sort_comparisons: float = 0.0,
    launches: float | None = None,
    flat_launches: float = 0.0,
    near_pairs_naive: float = 0.0,
    near_pairs_evaluated: float = 0.0,
) -> None:
    """Charge a grouped or dual force evaluation (list build vs eval).

    The build walk is pointer chasing (irregular bytes) but runs once
    per *group* and is warp-synchronous by construction — every lane of
    a warp executes the same walk — so its warp-granularity work equals
    its per-thread work (no divergence inflation).  Each MAC test of the
    walk is charged once (``lists.mac_evals``: the leaf-target visits in
    ``steps`` plus, for a dual walk, the cell-cell tests above them).
    The eval is a dense streaming tile.  When the lists come from the
    cross-timestep cache (``built=False``), only the eval side is
    charged.  Far pairs, when there are any, add the far stage every
    step: M2L per pair, the L2L shift per target node and L2P per body,
    each stage one irregular round trip through the expansion arrays
    and the M2L and downsweep launches.

    *launches* overrides the kernel-launch charge (default: 2 for
    build+eval, 1 for eval-only).  Callers that batch several list
    evaluations into one device launch pair — the distributed runtime
    evaluates every remote rank's halo tiles back to back — pass 0 for
    the batched-in calls so the fixed launch overhead is charged once.
    """
    build_steps = float(lists.mac_evals) if built else 0.0
    entries = float(lists.n_entries)
    node_bytes = (dim + 1) * 8.0
    quad_entries = float(lists.n_approx) if quad_terms else 0.0
    counters.add(
        flops=(pairs * FLOPS_PER_INTERACTION + build_steps * flops_per_visit
               + quad_terms * QUAD_EXTRA_FLOPS),
        special_flops=pairs * SPECIAL_PER_INTERACTION,
        bytes_irregular=build_steps * visit_bytes,
        bytes_read=(build_steps * visit_bytes
                    + entries * node_bytes
                    + quad_entries * QUAD_EXTRA_BYTES
                    + n_bodies * dim * 8.0),
        bytes_written=n_bodies * dim * 8.0,
        traversal_steps=build_steps,
        traversal_steps_max=float(lists.steps.max(initial=0)) if built else 0.0,
        # Warp-synchronous: one warp executes one group's walk, all
        # lanes together, so warp-granularity work == per-thread work.
        warp_traversal_steps=build_steps,
        interaction_list_size=entries,
        list_build_steps=build_steps,
        list_eval_interactions=float(pairs),
        # Every build-walk visit tests the MAC once; the emitted entries
        # are body-level work deferred to the tile evaluation, re-paid
        # every step the lists are reused.
        mac_evals=build_steps,
        pairs_deferred=entries,
        loop_iterations=float(groups.n_groups + n_bodies),
        kernel_launches=(2.0 if built else 1.0) if launches is None else launches,
        sort_comparisons=sort_comparisons,
        flat_launches=flat_launches,
        near_pairs_naive=near_pairs_naive,
        near_pairs_evaluated=near_pairs_evaluated,
    )
    nf = float(lists.n_far)
    if not nf:
        return
    n_nodes = float(lists.tt.layout.n_nodes)
    exp_bytes = expansion_words(dim, expansion_order) * 8.0
    m2l_bytes = nf * (node_bytes + exp_bytes) + quad_far * QUAD_EXTRA_BYTES
    counters.add(
        pairs_accepted_cc=nf,
        flops=(nf * m2l_flops(dim, expansion_order)
               + quad_far * QUAD_EXTRA_FLOPS
               + (n_nodes + n_bodies) * l2_flops(expansion_order)),
        bytes_irregular=m2l_bytes,
        bytes_read=(m2l_bytes
                    + 3.0 * n_nodes * exp_bytes      # L2L read+shift
                    + n_bodies * (dim * 8.0 + exp_bytes)),
        bytes_written=(nf * exp_bytes + n_nodes * exp_bytes
                       + n_bodies * dim * 8.0),
        kernel_launches=2.0,
    )


def account_lockstep_force(
    counters: Counters,
    steps: np.ndarray,
    interactions: int,
    *,
    dim: int,
    simt_width: int,
    visit_bytes: float,
    flops_per_visit: float,
    quad_terms: int = 0,
) -> None:
    """Charge a per-body lockstep walk, with exact warp divergence.

    *steps* holds every body's walk length; a warp pays for its longest
    lane.  *visit_bytes* / *flops_per_visit* are the tree's
    :class:`TreeView` constants.
    """
    total = float(steps.sum())
    n = steps.shape[0]
    pad = (-n) % simt_width
    warps = np.pad(steps, (0, pad)).reshape(-1, simt_width)
    warp_total = float(warps.max(axis=1).sum() * simt_width)
    counters.add(
        flops=(interactions * FLOPS_PER_INTERACTION + total * flops_per_visit
               + quad_terms * QUAD_EXTRA_FLOPS),
        special_flops=interactions * SPECIAL_PER_INTERACTION,
        bytes_irregular=total * visit_bytes + quad_terms * QUAD_EXTRA_BYTES,
        bytes_read=(total * visit_bytes + n * dim * 8.0
                    + quad_terms * QUAD_EXTRA_BYTES),
        bytes_written=n * dim * 8.0,
        traversal_steps=total,
        traversal_steps_max=float(steps.max(initial=0)),
        warp_traversal_steps=warp_total,
        mac_evals=total,  # every visit tests the MAC once
        loop_iterations=float(n),
        kernel_launches=1.0,
    )
