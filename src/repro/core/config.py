"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.physics.gravity import GravityParams

#: Algorithm identifiers: the paper's four evaluated algorithms plus
#: the two-stage comparator (Thüring et al. [22], the solver Section
#: V-A validates against).
ALGORITHM_NAMES = ("all-pairs", "all-pairs-col", "octree", "bvh", "octree-2stage")

#: Tree-maintenance policies (repro.maintenance): rebuild every step
#: (the paper's pipeline), refit the existing tree while the Hilbert
#: order stays valid, or let the cost model pick per step.
TREE_UPDATE_MODES = ("rebuild", "refit", "auto")

#: Force-traversal strategies of the tree algorithms (see
#: ``SimulationConfig.traversal``).
TRAVERSALS = ("lockstep", "grouped", "dual")

#: List evaluators of the grouped / dual near field (see
#: ``SimulationConfig.eval_mode``).
EVAL_MODES = ("auto", "tile", "gemm", "flat")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that parameterizes one run.

    Defaults mirror the paper's experimental setup (Section V-A):
    double precision throughout, ``theta = 0.5``.
    """

    algorithm: str = "octree"
    #: Barnes-Hut opening angle (distance threshold).  Note the octree
    #: and BVH interpret it differently (end of paper Section IV-B).
    theta: float = 0.5
    #: Time step for Störmer-Verlet integration.
    dt: float = 1e-3
    gravity: GravityParams = field(default_factory=GravityParams)
    #: Maximum tree refinement depth / Hilbert grid bits (None = dtype max).
    bits: int | None = None
    #: Space-filling curve for the BVH sort ('hilbert' per the paper;
    #: 'morton' enables the ordering ablation).
    curve: str = "hilbert"
    #: Multipole expansion order: 1 = monopole (the paper's exposition),
    #: 2 = + traceless quadrupoles ("the algorithms described here
    #: extend to multipoles").  Order 2 is 3-D only.
    multipole_order: int = 1
    #: Rebuild the tree only every k-th timestep, reusing the structure
    #: (octree: leaf assignment; BVH: Hilbert order) in between while
    #: recomputing moments from current positions each step — the
    #: amortization of Iwasawa et al. [30] that the paper's related work
    #: notes "can be applied to any Barnes-Hut implementation".  1 =
    #: rebuild every step (the paper's configuration).  Runs as the tree
    #: maintainer's fixed-cadence policy; single-rank only.
    tree_reuse_steps: int = 1
    #: Tree maintenance across timesteps (:mod:`repro.maintenance`):
    #: ``"rebuild"`` rebuilds from scratch every step (the paper's
    #: pipeline, the default); ``"refit"`` keeps the sort permutation /
    #: leaf assignment and refits geometry + multipoles in place while
    #: key disorder and body drift stay below bounds; ``"auto"``
    #: additionally asks the machine cost model whether the refit or the
    #: rebuild is cheaper this step.  Supersedes ``tree_reuse_steps``
    #: (the two must not be combined).
    tree_update: str = "rebuild"
    #: Maximum body displacement since the last full build, as a
    #: fraction of the root cube side, before a refit is no longer
    #: allowed.  Caps the drift-bounded MAC margin: cached grouped
    #: interaction lists get an adaptive opening-radius inflation sized
    #: to the observed per-step drift, never above this budget, and the
    #: distributed LET plans are built with the full budget so they
    #: survive every refit step of an epoch.
    drift_budget: float = 0.01
    #: Fraction of bodies out of Hilbert order (running-max displaced
    #: measure) above which ``tree_update="refit"`` falls back to a full
    #: rebuild; ``"auto"`` derives its own cap from measured costs.
    refit_disorder_threshold: float = 0.1
    #: Force-traversal strategy for the tree algorithms: ``"lockstep"``
    #: walks the tree once per body (paper Fig. 3); ``"grouped"`` walks
    #: once per Hilbert-contiguous body group with a conservative group
    #: MAC, evaluates the emitted interaction lists as dense tiles, and
    #: reuses the lists for as long as the maintained tree lives;
    #: ``"dual"`` additionally organizes the groups into a target tree
    #: and retires well-separated cell-cell pairs once via
    #: multipole-to-local transfers plus an L2L/L2P downsweep
    #: (:mod:`repro.traversal.dual`), deferring only the near field to
    #: the grouped tile kernels.
    traversal: str = "lockstep"
    #: Bodies per group for ``traversal="grouped"``/``"dual"``.
    #: ``group_size=1`` reproduces the lockstep walk bit for bit (at
    #: monopole order, grouped traversal).
    group_size: int = 32
    #: List evaluator of the grouped / dual near field: ``"tile"``
    #: (dense per-group tiles, bit-compatible with the lockstep
    #: kernels), ``"flat"`` (batch kernels with Newton's-third-law
    #: near-field dedup — :mod:`repro.traversal.flat`), ``"gemm"`` (the
    #: same batches without the dedup: every list entry a node source),
    #: or ``"auto"`` (default: tile for one-body groups, whose contract
    #: is bit-exactness; flat for multi-body groups whenever the caller
    #: hands the driver an entry dict — always the case for a single-rank
    #: :class:`Simulation`, though a rebuild-every-step run's entry lives
    #: for one evaluation — and gemm for calls without one, which
    #: includes every ``ranks > 1`` force).  flat and gemm share one
    #: block kernel; EXPERIMENTS.md measures gemm against flat.
    eval_mode: str = "auto"
    #: Dual traversal only: target-side opening multiplier of the
    #: symmetric cell-cell MAC.  A pair is retired far-field when the
    #: source passes the conservative MAC *and* the target box satisfies
    #: ``size_t < theta * cc_mac * dmin``; larger values retire more
    #: pairs per M2L at more Taylor-truncation error, ``0`` disables the
    #: cell-cell branch entirely (bit-identical to ``"grouped"``).
    cc_mac: float = 1.5
    #: Dual traversal only: order of the local (Taylor) expansion the
    #: downsweep carries — 0 = cell-centre force only, 1 = + Jacobian,
    #: 2 = + kernel third derivatives (default; keeps the truncation
    #: error inside the grouped envelope at the default ``cc_mac``).
    expansion_order: int = 2
    #: SIMT width used for the divergence statistics of the lockstep
    #: force kernels (matches the warp width of the modeled GPU).
    simt_width: int = 32
    #: Simulated ranks.  ``1`` (default) runs the ordinary single-rank
    #: kernels untouched; ``K > 1`` routes force evaluation through
    #: :mod:`repro.distributed`: Hilbert-range domain decomposition,
    #: per-rank local trees, LET halo exchange over the modeled fabric.
    ranks: int = 1
    #: Split-point policy: ``"static"`` = equal body counts,
    #: ``"weighted"`` = equal counter-fed per-body work (Becciani-style).
    decomposition: str = "static"
    #: Recompute the split points every k-th step (bodies are re-binned
    #: against the cached key ranges in between).
    rebalance_steps: int = 8
    #: Interconnect link class (``machine.catalog`` key) between ranks —
    #: the intra-node class when ``ranks_per_node`` makes the fabric
    #: hierarchical.
    interconnect: str = "nvlink4"
    #: Ranks per node for the hierarchical fabric; ``0`` (default) puts
    #: every rank in one node (uniform fabric over ``interconnect``).
    ranks_per_node: int = 0
    #: Inter-node link class of the hierarchical fabric.
    inter_interconnect: str = "ib-ndr"
    #: All-Pairs-Col only: knowingly replace par by par_unseq on devices
    #: without parallel forward progress, as the paper did on AMD/Intel
    #: GPUs ("this requires introducing undefined behavior").  Our batch
    #: path is value-equivalent, so the result stays correct; only the
    #: modeled semantics change.
    unsafe_relax_policy: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHM_NAMES:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHM_NAMES}"
            )
        if self.theta < 0:
            raise ConfigurationError("theta must be non-negative")
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.curve not in ("hilbert", "morton"):
            raise ConfigurationError("curve must be 'hilbert' or 'morton'")
        if self.multipole_order not in (1, 2):
            raise ConfigurationError("multipole_order must be 1 or 2")
        if not isinstance(self.tree_reuse_steps, int) or self.tree_reuse_steps < 1:
            raise ConfigurationError("tree_reuse_steps must be an integer >= 1")
        if self.tree_update not in TREE_UPDATE_MODES:
            raise ConfigurationError(
                f"tree_update must be one of {TREE_UPDATE_MODES}, got {self.tree_update!r}"
            )
        if self.tree_update != "rebuild":
            if self.algorithm not in ("octree", "bvh", "octree-2stage"):
                raise ConfigurationError(
                    f"tree_update={self.tree_update!r} requires a tree algorithm; "
                    f"got {self.algorithm!r}"
                )
            if self.tree_reuse_steps != 1:
                raise ConfigurationError(
                    "tree_update refit/auto supersedes tree_reuse_steps; "
                    "leave tree_reuse_steps at 1"
                )
        if not (isinstance(self.drift_budget, (int, float)) and self.drift_budget > 0):
            raise ConfigurationError("drift_budget must be a positive number")
        if not (isinstance(self.refit_disorder_threshold, (int, float))
                and 0.0 <= self.refit_disorder_threshold <= 1.0):
            raise ConfigurationError(
                "refit_disorder_threshold must be in [0, 1]"
            )
        if self.traversal not in TRAVERSALS:
            raise ConfigurationError(
                f"traversal must be one of {TRAVERSALS}, got {self.traversal!r}"
            )
        if not isinstance(self.group_size, int) or self.group_size < 1:
            raise ConfigurationError("group_size must be an integer >= 1")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigurationError(
                f"eval_mode must be one of {EVAL_MODES}, got {self.eval_mode!r}"
            )
        if not (isinstance(self.cc_mac, (int, float)) and self.cc_mac >= 0):
            raise ConfigurationError("cc_mac must be a non-negative number")
        if self.expansion_order not in (0, 1, 2):
            raise ConfigurationError("expansion_order must be 0, 1 or 2")
        if self.simt_width < 1:
            raise ConfigurationError("simt_width must be >= 1")
        if not isinstance(self.ranks, int) or self.ranks < 1:
            raise ConfigurationError("ranks must be an integer >= 1")
        if self.decomposition not in ("static", "weighted"):
            raise ConfigurationError(
                "decomposition must be 'static' or 'weighted'"
            )
        if not isinstance(self.rebalance_steps, int) or self.rebalance_steps < 1:
            raise ConfigurationError("rebalance_steps must be an integer >= 1")
        if not isinstance(self.ranks_per_node, int) or self.ranks_per_node < 0:
            raise ConfigurationError("ranks_per_node must be an integer >= 0")
        if self.ranks > 1 and self.tree_reuse_steps != 1:
            raise ConfigurationError(
                "tree_reuse_steps > 1 requires ranks=1; the distributed "
                "runtime keeps trees only under tree_update refit/auto"
            )
        if self.ranks > 1 and self.algorithm not in ("octree", "bvh"):
            raise ConfigurationError(
                "ranks > 1 requires a tree algorithm ('octree' or 'bvh'); "
                f"got {self.algorithm!r}"
            )

    def with_(self, **kw) -> "SimulationConfig":
        """Functional update helper."""
        return replace(self, **kw)
