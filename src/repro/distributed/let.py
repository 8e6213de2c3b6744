"""Locally essential trees: halo selection and cross-rank evaluation.

A rank's *locally essential tree* (LET, Salmon & Warren; Cornerstone's
"focused octree") is the subset of a remote rank's tree that any of
its own bodies could ever touch during the force walk.  Selection
reuses the grouped traversal's **conservative MAC** with the whole
destination domain box as the "group": a node is exported as a
multipole only when ``size^2 < theta^2 * dmin^2`` for ``dmin`` the
distance from the node's centre of mass to the nearest point of the
destination box.  Because ``dmin <= d_body`` for every destination
body, any node a *body-level* walk would open also fails the
domain-level MAC — so the domain walk's visited set is a superset of
every member body's visited set, and evaluating the imported LET with
the ordinary per-body/per-group MAC reproduces exactly the accept
decisions a single-rank walk would make inside those subtrees.  With
``theta = 0`` nothing is ever accepted and the LET degenerates to the
full remote body set: the exchange is exact.

Costing: the exchanged bytes are the *visited* node count of the
domain walk (the LET content: every opened node's children plus the
accepted frontier) times the per-node wire size.  The cross-rank force
contribution is then computed by walking the source tree with the
destination's body groups — operationally identical to walking the
imported LET, since the walk provably never leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.physics.multipole import quadrupole_accel
from repro.traversal.engine import (
    InteractionLists,
    TreeView,
    build_interaction_lists,
    evaluate_interaction_lists,
)
from repro.traversal.groups import BodyGroups
from repro.types import FLOAT, INDEX

#: body_ids sentinel for cross-rank evaluation: destination bodies can
#: never be a source tree's point leaves, but their *local* indices can
#: collide with the source's, so the gemm kernel must be told that no
#: row matches any ``point_body`` entry (-1 marks non-point nodes,
#: hence -2).
_FOREIGN_BODY_ID = INDEX(-2)


def let_node_bytes(dim: int, multipole_order: int = 1) -> float:
    """Wire size of one LET node: com + mass + packed child/size word,
    plus the traceless quadrupole tensor at order 2."""
    base = (dim + 2) * 8.0
    if multipole_order >= 2:
        base += dim * dim * 8.0
    return base


def let_refresh_bytes(dim: int, multipole_order: int = 1) -> float:
    """Wire size of one *refreshed* LET node on a refit step.

    Masses, child topology and node ids are unchanged since the epoch
    exchange, so only the centre of mass (tagged with its slot index)
    — plus the quadrupole tensor at order 2 — crosses the wire.
    """
    base = (dim + 1) * 8.0
    if multipole_order >= 2:
        base += dim * dim * 8.0
    return base


@dataclass(frozen=True)
class LETPlan:
    """Halo exchange plan of one source rank toward every other rank."""

    src: int
    dests: np.ndarray          # destination ranks (non-empty, != src)
    visited_nodes: np.ndarray  # LET node count per destination
    emitted_nodes: np.ndarray  # accepted frontier size per destination
    n_bytes: np.ndarray        # wire bytes per destination

    @property
    def total_bytes(self) -> float:
        return float(self.n_bytes.sum())


def _domain_groups(lo: np.ndarray, hi: np.ndarray) -> BodyGroups:
    """Abuse of :class:`BodyGroups`: one 'group' per destination domain
    box.  The list builder reads ``lo``/``hi`` and the body counts the
    ``offsets`` imply, dropping targets whose count is zero; the
    ``arange`` offsets give every domain group a count of one."""
    ng = lo.shape[0]
    return BodyGroups(np.arange(ng + 1, dtype=INDEX), lo, hi)


def build_let_plan(
    view: TreeView,
    src: int,
    dests: np.ndarray,
    dom_lo: np.ndarray,
    dom_hi: np.ndarray,
    theta: float,
    *,
    dim: int,
    multipole_order: int = 1,
    mac_margin: float = 0.0,
) -> LETPlan:
    """Size the LET of *src*'s tree toward each destination domain.

    One conservative-MAC walk per destination, all destinations level-
    synchronously at once (the grouped list build, i.e. the dual walk
    with the cell-cell branch off).  ``visited_nodes`` — every node the
    walk visits, empty children included — is what crosses the wire.
    ``mac_margin`` inflates the opening radius (see
    :mod:`repro.maintenance.drift`) so the plan survives bounded body
    drift on refit steps.
    """
    dests = np.asarray(dests, dtype=INDEX)
    if dests.size == 0:
        z = np.zeros(0)
        return LETPlan(src, dests, z, z, z)
    lists = build_interaction_lists(
        view, _domain_groups(dom_lo[dests], dom_hi[dests]), theta,
        mac_margin=mac_margin,
    )
    visited = lists.steps.astype(float)
    emitted = np.diff(lists.offsets).astype(float)
    n_bytes = visited * let_node_bytes(dim, multipole_order)
    return LETPlan(src, dests, visited, emitted, n_bytes)


@dataclass
class RemoteEvalStats:
    """Accounting of one cross-rank force contribution."""

    lists: InteractionLists
    pairs: int
    quad_terms: int
    #: Dual-traversal remote evaluations carry their DualLists here
    #: (None for grouped); the runtime then accounts the M2L/downsweep
    #: work on top of the near-field tile work.
    dual: object | None = None
    quad_far: int = 0
    #: Flat-evaluation stats (zero for the tile kernels).  Remote halo
    #: tiles are one-sided by construction — the mirror pair lives on
    #: the other rank — so n3l is disabled and only the launch count is
    #: ever non-zero here.
    flat_launches: int = 0
    near_pairs_naive: int = 0
    near_pairs_evaluated: int = 0


def remote_accelerations(
    view: TreeView,
    groups: BodyGroups,
    x_sorted: np.ndarray,
    theta: float,
    *,
    G: float = 1.0,
    eps2: float = 0.0,
    eval_mode: str = "auto",
    x_src: np.ndarray | None = None,
    m_src: np.ndarray | None = None,
    traversal: str = "grouped",
    cc_mac: float = 1.5,
    expansion_order: int = 2,
) -> tuple[np.ndarray, RemoteEvalStats]:
    """Force of one source rank's tree on a destination's body groups.

    *groups* / *x_sorted* are the destination rank's Hilbert-contiguous
    groups and sorted positions (``group_size = 1`` reproduces the
    per-body MAC of the lockstep kernels).  Bucket leaves of the source
    tree (octree duplicate-cell chains) are expanded exactly through
    ``view.exact_bodies`` against the source arrays *x_src* / *m_src*.

    ``traversal="dual"`` runs the cell-cell walk against the source
    tree instead.  This stays inside the one-sided LET halo: the dual
    walk only opens a source node that fails the conservative MAC
    against some target box contained in the destination domain, and
    failing the easier domain-level criterion is exactly what put the
    node's children into the LET in the first place.
    """
    dual = None
    quad_far = 0
    if traversal == "dual":
        # Deferred import: repro.traversal.dual pulls in the BVH
        # package, which this module must not load at import time.
        from repro.traversal.dual import (
            build_dual_lists,
            build_target_tree,
            evaluate_dual,
        )

        tt = build_target_tree(groups)
        dual = build_dual_lists(view, tt, theta, cc_mac=cc_mac)
        lists = dual.near
        acc, stats = evaluate_dual(
            view, dual, groups, x_sorted,
            G=G, eps2=eps2, mode=eval_mode,
            body_ids=np.full(x_sorted.shape[0], _FOREIGN_BODY_ID,
                             dtype=INDEX),
            expansion_order=expansion_order,
        )
        quad_far = stats["quad_far"]
    else:
        lists = build_interaction_lists(view, groups, theta)
        acc, stats = evaluate_interaction_lists(
            view, lists, groups, x_sorted,
            G=G, eps2=eps2, mode=eval_mode,
            body_ids=np.full(x_sorted.shape[0], _FOREIGN_BODY_ID,
                             dtype=INDEX),
        )
    pairs = stats["pairs"]
    if lists.exact_groups.size:
        if view.exact_bodies is None or x_src is None or m_src is None:
            raise ValueError(
                "source tree has bucket leaves; need exact_bodies, x_src, m_src")
        go = groups.offsets
        for g, node in zip(lists.exact_groups, lists.exact_nodes):
            bodies = view.exact_bodies(int(node))
            if not bodies:
                continue
            xb = x_src[bodies]
            mb = m_src[bodies]
            rows = slice(int(go[g]), int(go[g + 1]))
            d = xb[None, :, :] - x_sorted[rows][:, None, :]
            r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
            with np.errstate(divide="ignore"):
                w = np.where(r2 > 0.0, G * mb * r2 ** -1.5, 0.0)
            acc[rows] += np.einsum("ij,ijk->ik", w, d)
            pairs += w.size
    return acc, RemoteEvalStats(
        lists, pairs, stats["quad_terms"], dual=dual, quad_far=quad_far,
        flat_launches=stats.get("flat_launches", 0),
        near_pairs_naive=stats.get("near_pairs_naive", 0),
        near_pairs_evaluated=stats.get("near_pairs_evaluated", 0),
    )


def halo_point_accelerations(
    x_targets: np.ndarray,
    halo_x: np.ndarray,
    halo_m: np.ndarray,
    *,
    G: float = 1.0,
    eps2: float = 0.0,
    halo_quad: np.ndarray | None = None,
    tile: int = 2048,
) -> np.ndarray:
    """Direct evaluation of imported halo point masses / multipoles.

    Utility for callers that materialize a flat halo (e.g. the exact
    ``theta = 0`` exchange); the runtime's standard path goes through
    :func:`remote_accelerations` instead.
    """
    x_targets = np.asarray(x_targets, dtype=FLOAT)
    nt, dim = x_targets.shape
    acc = np.zeros((nt, dim), dtype=FLOAT)
    if halo_x.shape[0] == 0:
        return acc
    for s in range(0, nt, tile):
        xt = x_targets[s:s + tile]
        d = halo_x[None, :, :] - xt[:, None, :]
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        with np.errstate(divide="ignore"):
            w = np.where(r2 > 0.0, G * halo_m * r2 ** -1.5, 0.0)
        acc[s:s + tile] = np.einsum("ij,ijk->ik", w, d)
        if halo_quad is not None:
            b, k = xt.shape[0], halo_x.shape[0]
            qt = np.broadcast_to(halo_quad, (b, k, dim, dim)).reshape(-1, dim, dim)
            acc[s:s + tile] += quadrupole_accel(
                d.reshape(-1, dim), r2.reshape(-1), qt, G
            ).reshape(b, k, dim).sum(axis=1)
    return acc
