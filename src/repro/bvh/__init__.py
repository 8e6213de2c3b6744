"""The Hilbert-sorted BVH strategy (paper Section IV-B).

Bodies are sorted along a Hilbert space-filling curve (HILBERTSORT,
Alg. 7); a *balanced* binary bounding-volume hierarchy with
power-of-two leaves is then built bottom-up, fusing the bounding-box
and multipole reductions in a single level-by-level pass
(BUILDTREEACCUMULATEMASS).  Because the tree is balanced and implicit,
the number of levels, nodes per level and total nodes are predetermined
and the structure needs no connectivity storage: it is a skip list,
enabling stackless traversal with multi-level jumps.

Every phase is free of atomics and locks — only weakly parallel forward
progress is required, so the whole strategy runs under ``par_unseq`` on
any GPU (the portability trade-off the paper contrasts with the
Concurrent Octree).
"""

from repro.bvh.layout import BVHLayout, bvh_escape_indices
from repro.bvh.build import BVH, build_bvh, hilbert_sort_permutation
from repro.bvh.force import bvh_accelerations

__all__ = [
    "BVHLayout",
    "bvh_escape_indices",
    "BVH",
    "build_bvh",
    "hilbert_sort_permutation",
    "bvh_accelerations",
]
