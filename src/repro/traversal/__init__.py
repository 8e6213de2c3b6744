"""Group-coherent force traversal with cached interaction lists.

The paper's force kernels walk the tree once per body.  Production GPU
tree codes (Bonsai; Tokuue & Ishiyama's many-core code) amortize that
walk across a warp: bodies are partitioned into spatially-coherent
groups, the stackless walk runs once per group against the group's
bounding box, and the resulting *interaction list* is evaluated as a
dense ``group x node`` tile.  This package supplies that engine for
both tree strategies (octree and Hilbert BVH):

* :mod:`repro.traversal.groups` — Hilbert-contiguous body grouping and
  per-group AABBs;
* :mod:`repro.traversal.engine` — the generic list-building walk
  (conservative group MAC), the reference tile evaluator, and the
  grouped counter accounting;
* :mod:`repro.traversal.flat` — the batch evaluator: lists prepared
  once per epoch as rectangle blocks, evaluated in dense BLAS batches,
  with the symmetric near field deduped Newton's-third-law style (the
  production host path); without the dedup it is ``eval_mode="gemm"``;
* :mod:`repro.traversal.dual` — the dual-tree cell-cell walk: a target
  tree over the groups, a symmetric MAC that retires well-separated
  cell pairs once via M2L into local expansions, and the L2L/L2P
  downsweep that carries them to bodies;
* :mod:`repro.traversal.driver` — the one grouped/dual force driver
  over a :class:`TreeView`, shared by every tree and by the core,
  distributed and checkpoint-replay paths.

At ``group_size=1`` the group AABB degenerates to the body's position,
the conservative MAC coincides with the per-body criterion, and the
evaluation reproduces the lockstep kernels bit for bit (at monopole
order) — the property the tests pin down.
"""

from repro.traversal.engine import (
    KLASS_EXACT,
    KLASS_INTERNAL,
    KLASS_POINT,
    KLASS_SKIP,
    InteractionLists,
    TreeView,
    account_grouped_force,
    account_lockstep_force,
    build_interaction_lists,
    evaluate_interaction_lists,
    resolve_eval_mode,
)
from repro.traversal.flat import (
    FlatLists,
    build_flat_lists,
    evaluate_flat,
)
from repro.traversal.groups import BodyGroups, make_groups

# Imported last: dual pulls in the BVH layout, whose package init needs
# repro.traversal.engine to already be importable.
from repro.traversal.dual import (  # noqa: E402
    DualLists,
    TargetTree,
    account_dual_force,
    build_dual_lists,
    build_target_tree,
    dual_lists_valid,
    evaluate_dual,
)
from repro.traversal.driver import (  # noqa: E402
    hilbert_body_order,
    tree_accelerations,
)

__all__ = [
    "BodyGroups",
    "DualLists",
    "FlatLists",
    "InteractionLists",
    "TargetTree",
    "TreeView",
    "KLASS_EXACT",
    "KLASS_INTERNAL",
    "KLASS_POINT",
    "KLASS_SKIP",
    "account_dual_force",
    "account_grouped_force",
    "account_lockstep_force",
    "build_dual_lists",
    "build_flat_lists",
    "build_interaction_lists",
    "build_target_tree",
    "dual_lists_valid",
    "evaluate_dual",
    "evaluate_flat",
    "evaluate_interaction_lists",
    "hilbert_body_order",
    "make_groups",
    "resolve_eval_mode",
    "tree_accelerations",
]
