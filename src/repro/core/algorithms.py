"""Force algorithms behind a common interface.

Each algorithm implements the per-timestep force pipeline with the
paper's step structure, charging work to the context's step counters:

==============  =====================================================
step name       paper step
==============  =====================================================
bounding_box    CALCULATEBOUNDINGBOX (Alg. 3 transform_reduce)
sort            HILBERTSORT (BVH only, Alg. 7)
build_tree      BUILDTREE / BUILDTREEACCUMULATEMASS
multipoles      CALCULATEMULTIPOLES (octree only; fused for BVH)
force           CALCULATEFORCE
update_position UPDATEPOSITION (charged by the Simulation)
==============  =====================================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.config import SimulationConfig
from repro.errors import ForwardProgressError
from repro.geometry.aabb import AABB, compute_bounding_box
from repro.geometry.morton import max_bits
from repro.physics.bodies import BodySystem
from repro.stdpar.algorithms import transform_reduce
from repro.stdpar.context import ExecutionContext
from repro.stdpar.policy import par_unseq
from repro.stdpar.progress import ForwardProgress


class ForceAlgorithm(ABC):
    """One of the paper's four evaluated algorithms."""

    #: Registry name (matches the figures' legend).
    name: str = ""
    #: Asymptotic complexity class, for reporting.
    complexity: str = ""
    #: Strongest forward-progress guarantee any phase requires.
    required_progress: ForwardProgress = ForwardProgress.WEAKLY_PARALLEL
    #: Does any phase use atomics (and therefore the ``par`` policy)?
    uses_atomics: bool = False

    def supports(self, device, config: SimulationConfig) -> bool:
        """Can this algorithm run on *device* at all? (Paper Fig. 6:
        Octree only runs on CPUs and NVIDIA GPUs.)"""
        if device.progress.satisfies(self.required_progress):
            return True
        return self.allows_unsafe_relax and config.unsafe_relax_policy

    #: Whether the paper's par→par_unseq UB workaround applies.
    allows_unsafe_relax: bool = False

    @abstractmethod
    def accelerations(
        self,
        system: BodySystem,
        config: SimulationConfig,
        ctx: ExecutionContext,
        cache: dict | None = None,
    ) -> np.ndarray:
        """Accelerations of all bodies at the current positions.

        *cache*, when provided by the caller (one dict per simulation),
        holds what tree algorithms keep across timesteps (the
        :class:`~repro.maintenance.TreeMaintainer`, or a shared
        structure cache under ``"_shared"``); stateless algorithms
        ignore it.
        """

    # ------------------------------------------------------------------
    def _bounding_box(self, x: np.ndarray, ctx: ExecutionContext) -> AABB:
        """CALCULATEBOUNDINGBOX of positions *x* as a stdpar
        transform_reduce (Alg. 3)."""
        n, dim = x.shape
        with ctx.step("bounding_box"):
            return transform_reduce(
                par_unseq,
                n,
                AABB.empty(dim),
                lambda a, b: a.merge(b),
                lambda i: AABB(x[i], x[i]),
                ctx,
                batch=lambda _idx: compute_bounding_box(x),
                flops_per_item=2.0 * dim,
                bytes_per_item=8.0 * dim,
            )


class AllPairs(ForceAlgorithm):
    """Classical O(N²), ``par_unseq`` over bodies."""

    name = "all-pairs"
    complexity = "O(N^2)"
    required_progress = ForwardProgress.WEAKLY_PARALLEL
    uses_atomics = False

    def accelerations(self, system, config, ctx, cache=None):
        from repro.allpairs.classic import allpairs_accelerations

        with ctx.step("force"):
            return allpairs_accelerations(system.x, system.m, config.gravity, ctx=ctx)


class AllPairsCol(ForceAlgorithm):
    """O(N²) over pairs with atomic accumulation, ``par``."""

    name = "all-pairs-col"
    complexity = "O(N^2)"
    required_progress = ForwardProgress.PARALLEL
    uses_atomics = True
    allows_unsafe_relax = True

    def accelerations(self, system, config, ctx, cache=None):
        from repro.allpairs.collision import allpairs_col_accelerations

        with ctx.step("force"):
            if config.unsafe_relax_policy and not ctx.device.progress.satisfies(
                ForwardProgress.PARALLEL
            ):
                # The paper's AMD/Intel workaround: run the
                # value-equivalent batch under par_unseq semantics.
                from repro.physics.gravity import pairwise_accelerations

                acc = pairwise_accelerations(system.x, system.m, config.gravity)
                self._account_relaxed(system, ctx)
                return acc
            return allpairs_col_accelerations(system.x, system.m, config.gravity, ctx=ctx)

    @staticmethod
    def _account_relaxed(system, ctx):
        from repro.physics.gravity import FLOPS_PER_INTERACTION, SPECIAL_PER_INTERACTION

        n, dim = system.n, system.dim
        n_pairs = n * (n - 1) / 2
        ctx.counters.add(
            flops=n_pairs * (FLOPS_PER_INTERACTION * 0.5 + 2.0 * dim),
            special_flops=n_pairs * SPECIAL_PER_INTERACTION * 0.5,
            atomic_ops=2.0 * dim * n_pairs,
            loop_iterations=n_pairs,
            kernel_launches=1.0,
            bytes_read=(dim + 1) * 8.0 * n,
            bytes_written=dim * 8.0 * n,
        )


class OctreeHooks:
    """Octree-specific steps of the tree pipeline (paper Section IV-A).

    *two_stage* selects the Burtscher-Pingali build (Thüring et al.
    [22]) with level-wise multipoles; otherwise the backend picks the
    Concurrent Octree's virtual-thread reference kernels or their
    vectorized equivalents.
    """

    #: Steps the build, moments and refit are charged to.
    build_step = "build_tree"
    moments_step = "multipoles"
    refit_step = "multipoles"
    #: Moments run as a pass of their own after the build.
    fused_moments = False
    #: The build does not sort bodies: the maintainer's epoch curve
    #: order is an argsort of its own.
    sorts_by_keys = False
    #: The maintainer method this tree's step calls (see TreeMaintainer).
    maintain_entry = "maintain_octree"

    def __init__(self, two_stage: bool = False):
        self.two_stage = two_stage

    def build(self, x, box, config, ctx, keys=None):
        """The pool over *x* within *box* (no moments yet)."""
        if self.two_stage:
            from repro.octree.build_twostage import build_octree_twostage

            return build_octree_twostage(x, bits=config.bits, box=box, ctx=ctx)
        if ctx.backend == "reference":
            from repro.octree.build_concurrent import build_octree_concurrent

            return build_octree_concurrent(x, bits=config.bits, box=box, ctx=ctx)
        from repro.octree.build_vectorized import build_octree_vectorized

        return build_octree_vectorized(x, bits=config.bits, box=box, ctx=ctx)

    def moments(self, pool, x, m, config, ctx):
        """CALCULATEMULTIPOLES in place at positions *x*; returns the pool."""
        from repro.octree.multipoles import (
            compute_multipoles_concurrent,
            compute_multipoles_vectorized,
        )

        if self.two_stage:
            compute_multipoles_vectorized(pool, x, m, ctx,
                                          order=config.multipole_order,
                                          account="levelwise")
        elif ctx.backend == "reference":
            compute_multipoles_concurrent(pool, x, m, ctx,
                                          order=config.multipole_order)
        else:
            compute_multipoles_vectorized(pool, x, m, ctx,
                                          order=config.multipole_order)
        return pool

    #: Refit keeps the cells and leaf membership and refreshes moments.
    refit = moments

    def refit_growth(self, theta):
        """MAC-extent growth per unit body drift under refit, over theta:
        none, octree cells never change."""
        return 0.0

    def sense_grid(self, config, dim):
        """The maintainer's sensing ``(bits, curve)``: the grid the
        grouped traversal orders bodies on."""
        return max_bits(dim), "hilbert"

    def node_drift(self, pool, disp, rows):
        """Max body drift below each cell, from per-body *disp*."""
        from repro.maintenance.drift import octree_node_drift

        return octree_node_drift(pool, disp)

    def view(self, pool):
        from repro.octree.force import octree_tree_view

        return octree_tree_view(pool)


class BVHHooks:
    """BVH-specific steps of the tree pipeline (paper Section IV-B).

    The structure is the Hilbert sort permutation (HILBERTSORT); the
    moments are accumulated by the fused bottom-up build
    (BUILDTREEACCUMULATEMASS), which is therefore charged to
    ``build_tree``.
    """

    build_step = "sort"
    moments_step = "build_tree"
    refit_step = "refit"
    #: Moments are accumulated inside the build: the distributed
    #: runtime runs them per rank within its build loop.
    fused_moments = True
    #: The build sorts by the curve keys the maintainer senses with, and
    #: the structure's ``perm`` is the epoch curve order.
    sorts_by_keys = True
    #: The maintainer method this tree's step calls (see TreeMaintainer).
    maintain_entry = "maintain_bvh"

    def build(self, x, box, config, ctx, keys=None):
        """The :class:`~repro.bvh.build.CurveOrder` of *x* over *box*;
        *keys* are precomputed curve keys of *x*."""
        from repro.bvh.build import CurveOrder, hilbert_sort_permutation

        perm = hilbert_sort_permutation(x, box, bits=config.bits, ctx=ctx,
                                        curve=config.curve, keys=keys)
        return CurveOrder(perm, box)

    def moments(self, structure, x, m, config, ctx):
        from repro.bvh.build import assemble_bvh

        perm, box = structure
        return assemble_bvh(x, m, perm, box, ctx=ctx,
                            order=config.multipole_order)

    def refit(self, bvh, x, m, config, ctx):
        """Fused level-sweep geometry + multipole refresh (same order)."""
        from repro.bvh.build import refit_bvh

        return refit_bvh(bvh, x, ctx=ctx)

    def refit_growth(self, theta):
        """MAC-extent growth per unit body drift under refit, over theta:
        refit refreshes the boxes, so a node's longest side can grow by
        twice its drift."""
        return 2.0 / theta if theta > 0.0 else np.inf

    def sense_grid(self, config, dim):
        """The maintainer's sensing ``(bits, curve)``: the sort grid."""
        bits = config.bits if config.bits is not None else max_bits(dim)
        return bits, config.curve

    def node_drift(self, bvh, disp, rows):
        """Max body drift below each node, from *rows* (leaf order)."""
        from repro.maintenance.drift import bvh_node_drift

        return bvh_node_drift(bvh.layout, rows)

    def view(self, bvh):
        from repro.bvh.force import bvh_tree_view

        return bvh_tree_view(bvh)


class TreeAlgorithm(ForceAlgorithm):
    """A Barnes-Hut tree algorithm: the paper's tree pipeline, once.

    Every tree runs the same step structure — bounding box, build (or
    the maintainer's refit), moments, CALCULATEFORCE — and differs only
    in its *hooks* (:class:`OctreeHooks`, :class:`BVHHooks`): the build
    from a bounding box, the moments that make it force-ready, the
    refit, what the maintainer senses and gates with (grid, key-sorted
    build, node drift) and the traversal-engine view that the lockstep
    walk and the grouped/dual driver run on.  The maintainer, the
    distributed runtime and the checkpoint replay call the same hooks.
    """

    complexity = "O(N log N)"

    def __init__(self, name, hooks, *, required_progress, uses_atomics):
        self.name = name
        self.hooks = hooks
        self.required_progress = required_progress
        self.uses_atomics = uses_atomics

    def accelerations(self, system, config, ctx, cache=None):
        if (not ctx.device.progress.satisfies(self.required_progress)
                and ctx.on_progress_violation == "raise"):
            raise ForwardProgressError(
                f"{self.name!r} requires {self.required_progress.name.lower()} "
                f"forward progress; device {ctx.device.name!r} provides only "
                f"{ctx.device.progress.name} (paper Section V-B: hangs)"
            )
        from repro.maintenance.maintainer import get_maintainer

        hooks = self.hooks
        maint = get_maintainer(cache, config, ctx)
        if maint is not None:
            tree = getattr(maint, hooks.maintain_entry)(system, self)
            entry = maint.entry
        else:
            # Rebuild every evaluation.  A shared structure cache serves
            # entries built at bit-identical (x, m), force-ready tree
            # included; otherwise the entry lives for this call only.
            shared = cache.get("_shared") if cache is not None else None
            entry = (shared.lookup(self.name, config, system, ctx=ctx)
                     if shared is not None else None)
            if entry is None:
                box = self._bounding_box(system.x, ctx)
                with ctx.step(hooks.build_step):
                    structure = hooks.build(system.x, box, config, ctx)
                entry = (shared.store(self.name, config, system, structure)
                         if shared is not None else None)
                with ctx.step(hooks.moments_step):
                    tree = hooks.moments(structure, system.x, system.m,
                                         config, ctx)
                if entry is not None:
                    entry["tree"] = tree
                elif cache is not None:
                    entry = {}
            else:
                tree = entry["tree"]
        with ctx.step("force"):
            acc = self.force(tree, system.x, system.m, config, ctx,
                             cache=entry,
                             mac_margin=(maint.mac_margin if maint is not None
                                         else 0.0))
        if maint is not None:
            maint.finish_step(system.x)
        return acc

    def force(self, tree, x, m, config, ctx, *, view=None, cache=None,
              mac_margin=0.0):
        """CALCULATEFORCE on a force-ready *tree*: the lockstep walk or
        the grouped/dual driver, over its view (*view*, when the caller
        already has it)."""
        if view is None:
            view = self.hooks.view(tree)
        if config.traversal == "lockstep":
            from repro.traversal.lockstep import (
                GravityKernel,
                lockstep_accelerations,
            )

            acc, _ = lockstep_accelerations(
                view, x, m, GravityKernel(config.gravity), theta=config.theta,
                ctx=ctx, simt_width=config.simt_width)
            return acc
        from repro.traversal.driver import tree_accelerations

        return tree_accelerations(
            view, x, m, config.gravity,
            traversal=config.traversal, theta=config.theta,
            group_size=config.group_size, cc_mac=config.cc_mac,
            expansion_order=config.expansion_order,
            ctx=ctx, cache=cache, eval_mode=config.eval_mode,
            mac_margin=mac_margin,
        )


ALGORITHMS: dict[str, ForceAlgorithm] = {
    a.name: a
    for a in (
        AllPairs(),
        AllPairsCol(),
        TreeAlgorithm(
            # Concurrent Octree (paper Section IV-A)
            "octree", OctreeHooks(),
            # build + multipoles use par
            required_progress=ForwardProgress.PARALLEL, uses_atomics=True,
        ),
        TreeAlgorithm(
            # Hilbert-sorted balanced BVH (paper Section IV-B)
            "bvh", BVHHooks(),
            # par_unseq only
            required_progress=ForwardProgress.WEAKLY_PARALLEL,
            uses_atomics=False,
        ),
        # The comparator the paper validates against: a single work-group
        # serializes the contended top of the tree, then independent
        # subtrees build in parallel.  No global locks, so it runs under
        # weakly parallel forward progress on any GPU, paying for that
        # portability with the serial first stage.
        TreeAlgorithm(
            "octree-2stage", OctreeHooks(two_stage=True),
            required_progress=ForwardProgress.WEAKLY_PARALLEL,
            # work-group-local synchronization only
            uses_atomics=False,
        ),
    )
}


def get_algorithm(name: str) -> ForceAlgorithm:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; have {sorted(ALGORITHMS)}") from None


def list_algorithms() -> list[str]:
    return list(ALGORITHMS)
