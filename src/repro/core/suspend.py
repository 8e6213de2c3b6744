"""Mid-epoch runtime-state capture/restore for checkpoints.

A checkpoint used to hold only ``(x, v, config)`` — enough for a
bit-exact resume when every step rebuilds its tree from scratch,
because the acceleration is then a pure function of the restored state.
It is **not** enough between list-build epochs: under
``tree_reuse_steps > 1`` or ``tree_update="refit"`` the next force
evaluation reads the maintainer's epoch structure, interaction lists,
drift-budget counters, and adaptive MAC margins that were derived from
*earlier* positions.  A resume that silently rebuilt them from the restored
positions would change summation order — deterministic, but no longer
the original trajectory.

This module closes that gap.  :func:`capture_runtime_state` extracts
the minimal replayable state; :func:`apply_runtime_state` (invoked by
``Simulation(..., runtime_state=...)`` before the integrator's
construction-time force evaluation) reconstructs the caches by
re-running the *identical* deterministic build code on the captured
positions:

* **tree maintenance** (``refit``, and tree reuse's fixed cadence) —
  the epoch positions ``x_ref`` and age, the previous-step positions
  (drift sensing), the drift-budget scalars and event counts, and per
  cached list its build snapshot and MAC margin.  Restore replays the
  epoch rebuild at ``x_ref`` through the maintainer's own step,
  refits the structure to each list's snapshot through its refit hook,
  and re-runs the force driver with the captured margin —
  byte-identical lists, so the validity gate resumes exactly where it
  left off.  The age is rewound by one, so the construction-time
  evaluation re-ages the epoch to the captured value and every cadence
  rebuild falls on the original step.  (``tree_update="auto"``
  restores the same state but its cost-learning policy restarts, so
  the rebuild-vs-refit choices — not correctness — may differ.)
  Checkpoints written while tree reuse kept its own cache carry a
  ``"reuse"`` payload instead (epoch positions ``x_epoch`` and age);
  it replays as the maintainer epoch it equals.
* **distributed** (``ranks > 1``) — the domain decomposition
  (order/offsets/key splits), the rebalance cadence phase, and the
  work-feedback weights.  The runtime's first evaluation after restore
  replays the captured decomposition verbatim without advancing the
  cadence, so split points and re-bin timing match the original run.
  Maintained mode adds the epoch: its positions, decomposition, LET
  margin and maintenance counts.  Restore replays the epoch's per-rank
  builds and LET plans at its positions through the runtime's own
  rebuild, so later steps refit exactly the original trees.
"""

from __future__ import annotations

import numpy as np

from repro.physics.bodies import BodySystem
from repro.stdpar.context import ExecutionContext
from repro.types import FLOAT, INDEX

#: Version tag of the runtime-state payload inside checkpoint headers.
RUNTIME_STATE_VERSION = 1


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def capture_runtime_state(sim) -> dict | None:
    """Replayable cross-step state of *sim*, or None when stateless."""
    state: dict = {"version": RUNTIME_STATE_VERSION}
    maint = sim._tree_cache.get("_maintainer")
    if maint is not None and maint._x_ref is not None:
        lists = []
        for key, (cached_lists, snap_x) in maint._list_state.items():
            cached = maint.entry.get(key)
            if cached is None or cached.get("lists") is not cached_lists:
                continue  # dropped after its last snapshot: nothing live
            lists.append({
                "key": list(key),
                "margin": float(cached_lists.mac_margin),
                "x": np.asarray(snap_x, dtype=FLOAT),
            })
        state["maint"] = {
            "x_ref": np.asarray(maint._x_ref, dtype=FLOAT),
            "age": int(maint._age),
            "x_prev": (None if maint._x_prev is None
                       else np.asarray(maint._x_prev, dtype=FLOAT)),
            "step_drift": float(maint._step_drift),
            "budget_abs": float(maint._budget_abs),
            "counts": {k: int(v) for k, v in maint.counts.items()},
            "lists": lists,
        }

    dist = sim.distributed
    if dist is not None and dist._decomp is not None:
        state["dist"] = {
            "calls": int(dist.balancer._calls),
            **_pack_decomp(dist._decomp),
            "weights": (None if dist.balancer.weights is None
                        else np.asarray(dist.balancer.weights, dtype=FLOAT)),
            "prev_rank_of": (None if dist._prev_rank_of is None
                             else np.asarray(dist._prev_rank_of)),
        }
        ep = dist._epoch
        if ep is not None:
            state["dist"]["epoch"] = {
                "x_ref": np.asarray(ep["x_ref"], dtype=FLOAT),
                **_pack_decomp(ep["decomp"]),
                "budget_abs": float(ep["budget_abs"]),
                "maint_counts": {k: int(v)
                                 for k, v in dist.maint_counts.items()},
            }

    return state if len(state) > 1 else None


def _pack_decomp(d) -> dict:
    return {
        "mode": d.mode,
        "order": np.asarray(d.order),
        "offsets": np.asarray(d.offsets),
        "key_splits": np.asarray(d.key_splits),
    }


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def apply_runtime_state(sim, state: dict) -> None:
    """Reconstruct *sim*'s caches from a captured state.

    Runs inside ``Simulation.__init__`` after the distributed runtime
    exists and **before** the integrator's construction-time force
    evaluation, which therefore sees exactly the caches the suspended
    simulation had.  Rebuild work is charged to a scratch context (and
    the distributed epoch replay's per-rank work to the rank contexts,
    which every evaluation resets) — the resumed run's own accounting
    starts clean.
    """
    version = state.get("version")
    if version != RUNTIME_STATE_VERSION:
        raise ValueError(
            f"unsupported runtime-state version {version!r} "
            f"(expected {RUNTIME_STATE_VERSION})"
        )
    scratch = ExecutionContext(
        sim.ctx.device, backend=sim.ctx.backend, toolchain=sim.ctx.toolchain,
    )
    if "reuse" in state:
        _restore_maintainer(sim, _maint_from_reuse(state["reuse"],
                                                      sim.config), scratch)
    if "maint" in state:
        _restore_maintainer(sim, state["maint"], scratch)
    if "dist" in state and sim.distributed is not None:
        _restore_distributed(sim.distributed, state["dist"],
                             np.array(sim.system.m, copy=True), scratch)


def _maint_from_reuse(reuse: dict, config) -> dict:
    """A ``"reuse"`` payload as the maintainer epoch it equals: built at
    ``x_epoch``, its lists (if any) built there with margin 0, the same
    age.  The cadence never gates lists and keeps its margin at 0, so
    no drift state is needed."""
    x_epoch = reuse["x_epoch"]
    lists = ([] if config.traversal == "lockstep"
             else [{"margin": 0.0, "x": x_epoch}])
    return {"x_ref": x_epoch, "age": reuse["age"], "x_prev": None,
            "step_drift": 0.0, "budget_abs": 0.0, "counts": {},
            "lists": lists}


def _restore_maintainer(sim, ms: dict, scratch) -> None:
    """Replay the epoch rebuild at ``x_ref``, then the cached lists.

    A fresh maintainer's first step is always a rebuild, so running it
    at ``x_ref`` reproduces the epoch structure, tree and curve order
    bit for bit; the captured scalars then overwrite its fresh
    budget, drift and counts.
    """
    from repro.maintenance.maintainer import TreeMaintainer

    config = sim.config
    algo = sim.algorithm
    x_ref = np.asarray(ms["x_ref"], dtype=FLOAT)
    m = np.array(sim.system.m, copy=True)
    # The replay charges the scratch context; from here on the
    # maintainer accounts to the resumed simulation's own.
    maint = TreeMaintainer(config, scratch)
    maint.maintain(BodySystem(x_ref.copy(), np.zeros_like(x_ref), m), algo)
    maint.ctx = sim.ctx

    maint._x_prev = (None if ms["x_prev"] is None
                     else np.asarray(ms["x_prev"], dtype=FLOAT).copy())
    maint._step_drift = float(ms["step_drift"])
    maint._budget_abs = float(ms["budget_abs"])
    maint.counts.update({k: int(v) for k, v in ms["counts"].items()})
    # Payloads written before the age was captured are refit epochs,
    # whose decisions never read it.
    maint._age = max(int(ms.get("age", 1)) - 1, 0)
    maint._update_margin()
    for item in ms["lists"]:
        _warm_cached_lists(sim, maint, item, m, scratch)
    sim._tree_cache["_maintainer"] = maint


def _warm_cached_lists(sim, maint, item: dict, m: np.ndarray, scratch) -> None:
    """Re-run the list build at the captured snapshot and margin.

    The epoch tree is refit to the snapshot positions through the
    algorithm's own refit hook (octree: moments at those positions,
    which the grouped MAC reads; BVH: the fused geometry refresh) and
    the force driver runs on it verbatim, so the lists (and their
    flat/self-pair precomputes) come out of the same code path — and
    therefore the same bytes — as the originals.  The evaluation
    result is discarded; the work is charged to the scratch context.
    """
    snap_x = np.asarray(item["x"], dtype=FLOAT)
    config = sim.config
    algo = sim.algorithm
    tree = algo.hooks.refit(maint.tree, snap_x, m, config, scratch)
    algo.force(tree, snap_x, m, config, scratch, cache=maint.entry,
               mac_margin=float(item["margin"]))
    maint.snapshot_lists(snap_x)


def _restore_distributed(runtime, ds: dict, m: np.ndarray, scratch) -> None:
    if "epoch" in ds:
        # Maintained mode: replay the epoch's per-rank builds and LET
        # plans at its positions through the runtime's own rebuild, so
        # the resumed run refits exactly the trees the suspended one
        # would have.  (Refit is history-free: refitting the epoch
        # trees to any positions equals rebuilding them there.)
        ep = ds["epoch"]
        x_ref = np.asarray(ep["x_ref"], dtype=FLOAT)
        _, keys = runtime._keys(x_ref)
        ctx, runtime.ctx = runtime.ctx, scratch
        try:
            runtime._rebuild(x_ref, m, _unpack_decomp(runtime.n_ranks, ep),
                             keys)
        finally:
            runtime.ctx = ctx
        runtime._epoch["budget_abs"] = float(ep["budget_abs"])
        runtime.maint_counts = {k: int(v)
                                for k, v in ep["maint_counts"].items()}
    runtime._decomp = _unpack_decomp(runtime.n_ranks, ds)
    runtime._prev_rank_of = (
        None if ds["prev_rank_of"] is None
        else np.asarray(ds["prev_rank_of"]).astype(INDEX)
    )
    runtime.balancer._calls = int(ds["calls"])
    w = ds.get("weights")
    runtime.balancer.weights = (
        None if w is None else np.asarray(w, dtype=FLOAT)
    )
    # The next evaluation (the integrator's construction-time pass,
    # which replays the suspended step's evaluation) must use this
    # decomposition verbatim without advancing the rebalance cadence.
    runtime._resume_replay = True


def _unpack_decomp(n_ranks: int, ds: dict):
    from repro.distributed.partition import DomainDecomposition

    return DomainDecomposition(
        n_ranks,
        np.asarray(ds["order"]).astype(INDEX),
        np.asarray(ds["offsets"]).astype(INDEX),
        np.asarray(ds["key_splits"], dtype=np.uint64),
        str(ds["mode"]),
    )
