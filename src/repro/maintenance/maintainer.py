"""Per-simulation orchestrator for incremental tree maintenance.

One ``TreeMaintainer`` lives in the simulation's tree cache (under the
``"_maintainer"`` key) and owns the *epoch* state: the tree built at
the last full rebuild, the positions it was built from, the absolute
drift budget derived from the root cell, and the per-interaction-list
position snapshots the drift-bounded gate measures against.

Every step runs one body, :meth:`TreeMaintainer.maintain`, which knows
no tree type: it drives the tree only through its algorithm's hooks
(``algo.hooks``, see :class:`~repro.core.algorithms.TreeAlgorithm`).

1. **sense** (``encode`` step) — curve keys on the hooks' sensing grid
   (``sense_grid``) through the
   :class:`~repro.maintenance.keycache.KeyCache`, the disorder of the
   epoch curve order and the max displacement since the epoch build;
2. **decide** — :class:`~repro.maintenance.policy.MaintenancePolicy`
   picks rebuild or refit;
3. **rebuild** — bounding box, then ``hooks.build`` under its
   ``build_step`` and ``hooks.moments`` under its ``moments_step``.  A
   build that sorts by curve keys (``sorts_by_keys``) takes the keys
   encoded just before it and its ``perm`` is the epoch curve order;
   otherwise the order is a charged argsort of its own after the build.
   **refit** — the cached-list validity gate under ``refit`` (per-node
   drift from ``hooks.node_drift``), then ``hooks.refit`` under its
   ``refit_step``;
4. after the force phase, :meth:`TreeMaintainer.finish_step` snapshots
   positions for freshly built lists and feeds the cost model's view of
   the executed step back to the auto policy.

Tree reuse (``tree_reuse_steps > 1``) runs the same body under the
policy's fixed cadence: no sensing, a rebuild once the epoch has served
its evaluations, and in between ``hooks.moments`` over the kept
structure at the current positions.  Its lists are never gated: they
live for the whole epoch, built with margin 0.
"""

from __future__ import annotations

import numpy as np

from repro.machine.counters import Counters
from repro.machine.costmodel import CostModel
from repro.maintenance.disorder import coarsen_keys, key_disorder, sense_bits
from repro.maintenance.drift import displacement, group_drift, lists_valid
from repro.maintenance.keycache import KeyCache
from repro.maintenance.policy import Decision, MaintenancePolicy
from repro.types import FLOAT

#: Steps whose modeled times the auto policy learns from.
_OBSERVED_STEPS = ("encode", "sort", "build_tree", "refit",
                   "multipoles", "force")


def get_maintainer(cache: dict | None, config, ctx) -> "TreeMaintainer | None":
    """The simulation's maintainer, created on first use; None when
    *config* rebuilds every evaluation (nothing outlives a step)."""
    maint = cache.get("_maintainer") if cache is not None else None
    if maint is None and MaintenancePolicy.mode_for(config) != "rebuild":
        maint = TreeMaintainer(config, ctx)
        if cache is not None:
            cache["_maintainer"] = maint
    return maint


class TreeMaintainer:
    """Owns one tree across timesteps, refitting when the order holds."""

    #: New interaction lists get an opening-radius inflation of this
    #: many *observed per-step drifts* (clamped by the epoch budget):
    #: enough slack for the gate to keep them alive across several
    #: steps, small enough not to inflate the force work noticeably.
    MARGIN_STEPS = 64.0

    def __init__(self, config, ctx):
        self.config = config
        self.ctx = ctx
        self.keycache = KeyCache()
        self.policy = MaintenancePolicy(
            MaintenancePolicy.mode_for(config),
            config.refit_disorder_threshold, cadence=config.tree_reuse_steps)
        self._model = CostModel(ctx.device, toolchain=ctx.toolchain)
        #: Structure-cache entry dict handed to the grouped/dual force
        #: driver (it stores interaction lists in it under tuple keys
        #: ``("lists", theta, group_size, cc_mac)``).
        self.entry: dict = {}
        #: Maintenance event counts, exposed through ``--profile``.
        self.counts = {"rebuild": 0, "refit": 0, "lists_dropped": 0}
        self.last_decision: Decision | None = None
        #: Opening-radius inflation for lists built *this* step (the
        #: adaptive margin); the force driver receives it verbatim and the
        #: lists remember it for their own validity gate.
        self.mac_margin = 0.0
        # --- epoch state ---------------------------------------------
        #: The force-ready epoch tree (what the hooks' moments or refit
        #: last returned).
        self.tree = None
        self._structure = None  # the last rebuild's hooks.build result
        self._order: np.ndarray | None = None  # epoch curve order (sensed)
        self._x_ref: np.ndarray | None = None
        self._age = 0  # force evaluations the epoch has served
        self._x_prev: np.ndarray | None = None
        self._step_drift = 0.0
        self._budget_abs = 0.0
        self._list_state: dict = {}  # lists key -> (lists, x snapshot)
        self._snap: dict | None = None

    def maintain(self, system, algo):
        """One maintenance step of *algo*'s tree at *system*'s positions,
        through ``algo.hooks`` alone; returns the force-ready tree."""
        config, ctx, hooks = self.config, self.ctx, algo.hooks
        x, m = system.x, system.m
        n, dim = x.shape
        bits, curve = hooks.sense_grid(config, dim)
        have = self.tree is not None and self.tree.n_bodies == n
        decision = self._decide(x, bits, curve, have)
        if decision.action == "rebuild":
            box = algo._bounding_box(x, ctx)
            keys = None
            if hooks.sorts_by_keys:
                with ctx.step("encode"):
                    keys = self.keycache.keys(x, box, bits=bits, curve=curve,
                                              ctx=ctx)
            with ctx.step(hooks.build_step):
                self._structure = hooks.build(x, box, config, ctx, keys=keys)
            if hooks.sorts_by_keys:
                self._order = self._structure.perm
            elif self.policy.senses:
                with ctx.step("encode"):
                    # The build did not sort: the epoch reference order
                    # is one argsort of the keys, charged as such.
                    keys = self.keycache.keys(x, self._structure.box,
                                              bits=bits, curve=curve, ctx=ctx)
                    self._order = np.argsort(keys, kind="stable")
                    ctx.counters.add(
                        sort_comparisons=float(n) * float(np.log2(max(n, 2))),
                        bytes_read=8.0 * n, bytes_written=8.0 * n,
                        kernel_launches=1.0,
                    )
            with ctx.step(hooks.moments_step):
                self.tree = hooks.moments(self._structure, x, m, config, ctx)
            self._begin_epoch(x)
        elif self.policy.senses:
            # The list gate is refit work.  The tree's refit shares its
            # window when charged to "refit" too, else follows it.
            with ctx.step("refit"):
                self._gate_lists(x, hooks)
                if hooks.refit_step == "refit":
                    self.tree = hooks.refit(self.tree, x, m, config, ctx)
            if hooks.refit_step != "refit":
                with ctx.step(hooks.refit_step):
                    self.tree = hooks.refit(self.tree, x, m, config, ctx)
            self._keep_epoch()
        else:
            # Cadence: the epoch structure, its moments refreshed at the
            # current positions.
            with ctx.step(hooks.moments_step):
                self.tree = hooks.moments(self._structure, x, m, config, ctx)
            self._keep_epoch()
        self._update_margin()
        return self.tree

    # perfbench's ``maintenance.maintain_s`` span wraps the maintainer
    # step by these two qualnames (``TreeAlgorithm`` calls the one its
    # hooks name).  They go once perfbench reads the program's own spans
    # (ROADMAP item 1).
    maintain_bvh = maintain_octree = maintain

    # ------------------------------------------------------------------
    def _emit_decision(self, decision: Decision) -> None:
        """Trace the refit-vs-rebuild decision as an instant event."""
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.instant("maintenance_decision", args={
                "action": decision.action,
                "disorder": float(decision.disorder),
                "drift": float(decision.drift),
                "threshold": float(decision.threshold),
            })

    # ------------------------------------------------------------------
    def finish_step(self, x: np.ndarray) -> None:
        """Post-force bookkeeping: list snapshots + policy feedback."""
        self.snapshot_lists(x)
        if self._snap is not None:
            secs = {
                name: self._model.step_time(self._delta_counters(name)).total
                for name in _OBSERVED_STEPS
            }
            self.policy.observe(self.last_decision.action, secs)
        self._snap = None
        self._x_prev = np.asarray(x, dtype=FLOAT).copy()

    def snapshot_lists(self, x: np.ndarray) -> None:
        """Record positions *x* as the build snapshot of every cached
        list built since the last call."""
        for key, cached in self.entry.items():
            if not isinstance(key, tuple):
                continue
            state = self._list_state.get(key)
            if state is None or state[0] is not cached["lists"]:
                self._list_state[key] = (
                    cached["lists"], np.asarray(x, dtype=FLOAT).copy()
                )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _begin_epoch(self, x: np.ndarray) -> None:
        self._x_ref = np.asarray(x, dtype=FLOAT).copy()
        self._budget_abs = self.config.drift_budget * max(
            float(self._structure.box.longest_side), np.finfo(FLOAT).tiny
        )
        self.entry.clear()
        self._list_state.clear()
        self._age = 1
        self.counts["rebuild"] += 1

    def _keep_epoch(self) -> None:
        self._age += 1
        self.counts["refit"] += 1

    def _update_margin(self) -> None:
        """Adaptive list margin: slack for ~MARGIN_STEPS steps of the
        drift observed last step, never past the epoch budget.  Zero
        observed drift keeps the margin at zero — and the maintained
        lists bit-identical to a rebuild-every-step run's."""
        self.mac_margin = min(self._budget_abs,
                              self.MARGIN_STEPS * self._step_drift)

    def _decide(self, x, bits, curve, have) -> Decision:
        """This step's decision, traced and fed back when it was sensed."""
        self._snap = self._take_snapshot() if self.policy.senses else None
        if have and self.policy.senses:
            decision = self._sense(x, bits, curve)
        else:
            self._step_drift = 0.0
            decision = self.policy.decide(have_structure=have, age=self._age)
        if self.policy.senses:
            self._emit_decision(decision)
        self.last_decision = decision
        return decision

    def _sense(self, x, bits, curve) -> Decision:
        """Measure disorder + drift and ask the policy (``encode`` step)."""
        ctx = self.ctx
        n, dim = x.shape
        with ctx.step("encode"):
            keys = self.keycache.keys(x, self._structure.box, bits=bits,
                                      curve=curve, ctx=ctx)
            sb = sense_bits(n, dim, occupancy=self.config.group_size)
            stats = key_disorder(coarsen_keys(keys[self._order], bits, sb, dim))
            disp = displacement(x, self._x_ref)
            drift = float(disp.max(initial=0.0))
            if self._x_prev is not None and self._x_prev.shape == x.shape:
                self._step_drift = float(
                    displacement(x, self._x_prev).max(initial=0.0))
            else:
                self._step_drift = 0.0
            # Sensing: gather keys through the permutation + running-max
            # pass, and two streaming displacement reductions (since the
            # epoch build and since the previous step).
            ctx.counters.add(
                flops=(6.0 * dim + 3.0) * n,
                special_flops=2.0 * n,
                bytes_read=8.0 * n * (3.0 * dim + 3.0),
                bytes_irregular=8.0 * n,
                loop_iterations=float(n),
                kernel_launches=3.0,
            )
        return self.policy.decide(
            have_structure=True, disorder=stats.fraction, drift=drift,
            drift_ok=drift <= self._budget_abs,
        )

    def _gate_lists(self, x: np.ndarray, hooks) -> None:
        """Drop cached lists whose drift-bounded validity gate fails.

        The tree's *hooks* give the per-node drift and the MAC-extent
        growth per unit node drift under refit."""
        n, dim = x.shape
        growth = hooks.refit_growth(self.config.theta)
        for key in [k for k in self.entry if isinstance(k, tuple)]:
            cached = self.entry[key]
            state = self._list_state.get(key)
            if state is None or state[0] is not cached["lists"]:
                ok = False  # untracked list: cannot prove anything
            else:
                disp = displacement(x, state[1])
                rows = disp[cached["perm"]]
                node_drift = hooks.node_drift(self.tree, disp, rows)
                grp = group_drift(cached["groups"].offsets, rows)
                lists = cached["lists"]
                with np.errstate(invalid="ignore"):
                    ok = lists_valid(lists, grp, node_drift,
                                     size_factor=growth)
                nn = node_drift.shape[0]
                ne = lists.n_entries
                nf = lists.n_far
                self.ctx.counters.add(
                    flops=(3.0 * dim + 1.0) * n + 2.0 * nn + 3.0 * (ne + nf),
                    bytes_read=8.0 * (n * dim + nn + 2.0 * (ne + nf)),
                    bytes_written=8.0 * nn,
                    loop_iterations=float(nn),
                    kernel_launches=2.0,
                )
            if not ok:
                del self.entry[key]
                self._list_state.pop(key, None)
                self.counts["lists_dropped"] += 1

    # ------------------------------------------------------------------
    def _take_snapshot(self) -> dict:
        out = {}
        for name in _OBSERVED_STEPS:
            c = self.ctx.step_counters.steps.get(name)
            out[name] = c.as_dict() if c is not None else None
        return out

    def _delta_counters(self, name: str) -> Counters:
        cur = self.ctx.step_counters.steps.get(name)
        if cur is None:
            return Counters()
        prev = (self._snap or {}).get(name) or {}
        delta = Counters()
        for k, v in cur.as_dict().items():
            if k == "traversal_steps_max":
                setattr(delta, k, v)
            else:
                setattr(delta, k, v - prev.get(k, 0.0))
        return delta
