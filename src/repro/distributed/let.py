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
imported LET, since the walk provably never leaves it.  That walk is
the local force driver's own (:mod:`repro.traversal.driver`), with the
destination's bodies as foreign targets: one list build, evaluator
choice, bucket-leaf expansion and accounting for local and halo forces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traversal.engine import TreeView, build_interaction_lists
from repro.traversal.groups import BodyGroups
from repro.types import INDEX


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


def remote_accelerations(
    view: TreeView,
    x_src: np.ndarray,
    m_src: np.ndarray,
    x_dst: np.ndarray,
    config,
    ctx=None,
    *,
    launches: float | None = None,
) -> np.ndarray:
    """Force of one source rank's tree on a destination rank's bodies.

    *view* is the source rank's tree over its bodies *x_src* / *m_src*
    (which its bucket leaves expand against); *x_dst* are the
    destination's Hilbert-contiguous positions.  The evaluation is
    :func:`repro.traversal.driver.tree_accelerations` with *x_dst* as
    foreign targets, charged to *ctx* like a local grouped/dual force;
    *launches* overrides its launch charge, so a rank that evaluates
    every halo back to back pays one launch pair.  The lockstep
    traversal runs as one-body groups (its per-body MAC).

    A ``traversal="dual"`` config runs the cell-cell walk against the
    source tree instead.  This stays inside the one-sided LET halo: the
    dual walk only opens a source node that fails the conservative MAC
    against some target box contained in the destination domain, and
    failing the easier domain-level criterion is exactly what put the
    node's children into the LET in the first place.
    """
    # Deferred import: the driver pulls in the BVH package, which this
    # module must not load at import time.
    from repro.traversal.driver import tree_accelerations

    lockstep = config.traversal == "lockstep"
    return tree_accelerations(
        view, x_src, m_src, config.gravity,
        traversal="grouped" if lockstep else config.traversal,
        theta=config.theta, group_size=1 if lockstep else config.group_size,
        cc_mac=config.cc_mac, expansion_order=config.expansion_order,
        ctx=ctx, eval_mode=config.eval_mode,
        targets=x_dst, launches=launches,
    )
