"""Octree node-pool memory layout (paper Fig. 1) and bump allocator.

Per node the tree stores one *child word* (``child[i]``):

* ``EMPTY``  — an empty leaf;
* ``LOCKED`` — transient: a thread is inserting / subdividing here;
* ``encode_body(b)`` — a leaf containing body ``b`` (negative encoding);
* ``c >= 0`` — an internal node whose 2^dim children occupy the
  contiguous slots ``c .. c + 2^dim - 1`` in Morton order.

Each *sibling group* additionally stores the offset of its parent
(``parent_of_group``), enabling the leaf-to-root multipole reduction;
this mirrors the paper's "one parent offset per siblings" (1 byte/node
equivalent).  A concurrent bump allocator hands out sibling groups with
a single relaxed ``fetch_add``; since it only moves forward, child
offsets are strictly greater than their parents', which the stackless
force traversal exploits.

Bodies that share a grid cell at the maximum refinement depth cannot be
separated; they form a *bucket*: the leaf's child word holds the head
body and ``next_body`` chains the rest (-1 terminated).  With distinct
positions and default depth this virtually never happens, but it makes
the structure total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocatorExhausted
from repro.geometry.aabb import AABB, cubify
from repro.types import FLOAT, INDEX

#: Child-word tokens (must be negative; body encoding starts at -3).
EMPTY = -1
LOCKED = -2
_BODY_BASE = 3


def encode_body(b: int) -> int:
    """Child-word encoding of 'leaf containing body b'."""
    return -(int(b) + _BODY_BASE)


def decode_body(token: int) -> int:
    """Inverse of :func:`encode_body`."""
    return -int(token) - _BODY_BASE


def is_body_token(token) -> bool | np.ndarray:
    """True for child words that encode a body leaf (scalar or array)."""
    return token <= -_BODY_BASE


@dataclass
class OctreePool:
    """Node pool + per-node attribute arrays for one octree.

    Node 0 is the root.  ``n_nodes`` is the bump-allocator frontier; all
    arrays are valid in ``[0, n_nodes)``.
    """

    dim: int
    bits: int                 # maximum refinement depth (levels below root)
    box: AABB                 # cubified root cell
    capacity: int
    n_bodies: int

    # --- core layout (Fig. 1) ---------------------------------------
    child: np.ndarray = field(init=False)             # int64[capacity]
    parent_of_group: np.ndarray = field(init=False)   # int64[n_groups]
    depth: np.ndarray = field(init=False)             # int16[capacity]
    next_body: np.ndarray = field(init=False)         # int64[n_bodies]

    # --- multipole storage (monopole: mass + centre of mass) --------
    com_w: np.ndarray = field(init=False)             # float64[capacity, dim]
    mass: np.ndarray = field(init=False)              # float64[capacity]
    count: np.ndarray = field(init=False)             # int64[capacity]
    arrivals: np.ndarray = field(init=False)          # int64[capacity]

    # --- traversal acceleration -------------------------------------
    escape: np.ndarray | None = field(init=False, default=None)
    com: np.ndarray | None = field(init=False, default=None)
    #: Traceless quadrupole tensors, allocated when the multipole step
    #: runs at order 2 (paper: "the algorithms described here extend to
    #: multipoles"); None at the default monopole order.
    quad: np.ndarray | None = field(init=False, default=None)

    n_nodes: int = field(init=False, default=1)

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.box = cubify(self.box)
        if not self.box.is_empty and self.box.longest_side == 0.0:
            # All bodies coincide.  Zero-sized cells would pass the MAC
            # for their own bodies, which sit a rounding error away from
            # the centre of mass; a side of the coordinates' magnitude
            # keeps those cells opening down to the bucket leaf.
            half = 0.5 * max(float(np.abs(self.box.lo).max()), 1.0)
            self.box = AABB(self.box.lo - half, self.box.lo + half)
        nch = self.nchild
        n_groups = self.capacity // nch + 2
        self.child = np.full(self.capacity, EMPTY, dtype=INDEX)
        self.parent_of_group = np.full(n_groups, -1, dtype=INDEX)
        self.depth = np.zeros(self.capacity, dtype=np.int16)
        self.next_body = np.full(self.n_bodies, -1, dtype=INDEX)
        self.com_w = np.zeros((self.capacity, self.dim), dtype=FLOAT)
        self.mass = np.zeros(self.capacity, dtype=FLOAT)
        self.count = np.zeros(self.capacity, dtype=INDEX)
        self.arrivals = np.zeros(self.capacity, dtype=INDEX)
        self.n_nodes = 1  # root pre-allocated
        self._next_group_slot = 1  # node index where the next group starts

    # ------------------------------------------------------------------
    @property
    def nchild(self) -> int:
        return 1 << self.dim

    def node_side(self, depth) -> np.ndarray | float:
        """Geometric side length of nodes at the given depth(s)."""
        return self.box.longest_side * np.exp2(-np.asarray(depth, dtype=FLOAT))

    # ------------------------------------------------------------------
    # Bump allocation of sibling groups.
    # ------------------------------------------------------------------
    def allocate_groups(self, n_groups: int, parents: np.ndarray | None = None) -> int:
        """Reserve *n_groups* contiguous sibling groups; returns the node
        index of the first group's first child.

        The concurrent build performs this with a relaxed atomic
        ``fetch_add`` on the group counter (one group at a time); the
        vectorized build batches the same allocation.
        """
        nch = self.nchild
        base = self._next_group_slot
        end = base + n_groups * nch
        if end > self.capacity:
            raise AllocatorExhausted(
                f"octree pool exhausted: need {end} nodes, capacity {self.capacity}"
            )
        self._next_group_slot = end
        self.n_nodes = end
        if parents is not None:
            # groups are aligned: base == 1 + k * nch
            gids = (base - 1) // nch + np.arange(n_groups)
            self.parent_of_group[gids] = parents
        return base

    def reserve(self, n_nodes: int) -> None:
        """Grow the node arrays, keeping their contents, until *n_nodes*
        nodes fit (capacity doubles).  A no-op while they already fit,
        so a build that stays within its estimate is left untouched."""
        cap = self.capacity
        if n_nodes <= cap:
            return
        while cap < n_nodes:
            cap *= 2
        for name, fill in (("child", EMPTY), ("depth", 0), ("com_w", 0.0),
                           ("mass", 0.0), ("count", 0), ("arrivals", 0),
                           ("parent_of_group", -1)):
            a = getattr(self, name)
            size = cap // self.nchild + 2 if name == "parent_of_group" else cap
            pad = np.full((size - a.shape[0],) + a.shape[1:], fill, a.dtype)
            setattr(self, name, np.concatenate((a, pad)))
        self.capacity = cap

    def parent_of(self, node) -> np.ndarray | int:
        """Parent node index (root maps to -1)."""
        node = np.asarray(node)
        grp = (node - 1) // self.nchild
        parent = np.where(node > 0, self.parent_of_group[np.maximum(grp, 0)], -1)
        return parent if parent.ndim else int(parent)

    # ------------------------------------------------------------------
    def alive(self) -> np.ndarray:
        """Indices of all allocated nodes."""
        return np.arange(self.n_nodes)

    def internal_nodes(self) -> np.ndarray:
        return np.nonzero(self.child[: self.n_nodes] >= 0)[0]

    def leaf_nodes(self) -> np.ndarray:
        return np.nonzero(self.child[: self.n_nodes] < 0)[0]

    def body_leaves(self) -> np.ndarray:
        return np.nonzero(self.child[: self.n_nodes] <= -_BODY_BASE)[0]

    def leaf_bodies(self, node: int) -> list[int]:
        """All bodies stored in leaf *node* (walking the bucket chain)."""
        token = int(self.child[node])
        out: list[int] = []
        if token > -_BODY_BASE:
            return out
        b = decode_body(token)
        while b >= 0:
            out.append(b)
            b = int(self.next_body[b])
        return out

    def finalize_com(self) -> None:
        """Convert accumulated mass-weighted sums into centres of mass."""
        n = self.n_nodes
        with np.errstate(invalid="ignore", divide="ignore"):
            self.com = np.where(
                self.mass[:n, None] > 0.0,
                self.com_w[:n] / self.mass[:n, None],
                0.0,
            )

    # ------------------------------------------------------------------
    @staticmethod
    def estimate_capacity(n_bodies: int, dim: int, bits: int) -> int:
        """Pool-size estimate, mirroring the paper's 'estimated from the
        number of nodes required to fit all bodies at an isotropically
        sub-divided tree level' heuristic (with generous headroom; the
        concurrent builder retries with a doubled pool on exhaustion)."""
        nch = 1 << dim
        return int(max(4 * nch * max(n_bodies, 1), 64)) + nch * bits
