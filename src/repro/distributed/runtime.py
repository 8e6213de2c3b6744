"""Deterministic simulated multi-rank runtime (BSP step pipeline).

One process *plays* K ranks: every rank's work runs locally, in rank
order, against its own :class:`~repro.stdpar.context.ExecutionContext`,
and every exchange goes through the modeled
:class:`~repro.distributed.fabric.Fabric` instead of a real wire.  The
physics is therefore exactly reproducible (no MPI nondeterminism) while
the *accounting* is what a real K-rank machine would see: per-rank
operation counters, per-rank fabric seconds, and a bulk-synchronous
step time of ``max`` over ranks.

The per-timestep pipeline extends the paper's Algorithm 2/6 with two
distributed phases::

    partition   Hilbert keys, split-point re-bin (or rebalance),
                body migration between owners
    bounding_box/sort/build_tree/multipoles
                per-rank local trees (the existing kernels, verbatim)
    exchange    LET halo selection + fabric transfer of halo nodes
    force       local tree force + cross-rank force against every
                remote tree, both through the one force driver
                (repro.traversal.driver; the remote walk provably stays
                inside the exchanged LET, see repro.distributed.let)

``ranks=1`` never reaches this module — ``core.Simulation`` bypasses it
entirely, so the single-rank path stays bit-identical to the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.algorithms import get_algorithm
from repro.distributed.balance import WorkBalancer
from repro.distributed.fabric import Fabric, FabricTraffic
from repro.distributed.let import (
    build_let_plan,
    let_refresh_bytes,
    remote_accelerations,
)
from repro.distributed.partition import DomainDecomposition, decompose
from repro.geometry.aabb import compute_bounding_box, cubify
from repro.geometry.morton import max_bits
from repro.machine.costmodel import CostModel
from repro.machine.counters import StepCounters
from repro.maintenance.disorder import coarsen_keys, key_disorder, sense_bits
from repro.stdpar.context import ExecutionContext
from repro.types import FLOAT, INDEX

#: Wire size of one migrated body: position + velocity + mass.
def _body_bytes(dim: int) -> float:
    return (2.0 * dim + 1.0) * 8.0


@dataclass
class DistributedReport:
    """Per-step accounting of one distributed force evaluation."""

    n_ranks: int
    counts: np.ndarray                   # bodies per rank
    rank_counters: list[StepCounters]    # per-rank operation counts
    traffic: FabricTraffic               # fabric bytes/messages/seconds
    let_bytes: np.ndarray                # (K, K) LET halo bytes src→dst
    migrated: int                        # bodies that changed owner
    rebalanced: bool                     # split points recomputed?
    decomposition: DomainDecomposition = field(repr=False, default=None)  # type: ignore[assignment]

    def model_rank_seconds(self, model: CostModel) -> np.ndarray:
        """Modeled seconds per rank: device compute + fabric time.

        Pass a :class:`CostModel` *without* an interconnect — per-link
        fabric times are already in ``traffic.rank_seconds``, and the
        model's single-link ``comm`` term would double-charge them.
        """
        compute, comm = self.comm_compute_split(model)
        return compute + comm

    def model_step_seconds(self, model: CostModel) -> float:
        """Bulk-synchronous step time: the slowest rank."""
        return float(self.model_rank_seconds(model).max())

    def comm_compute_split(self, model: CostModel) -> tuple[np.ndarray, np.ndarray]:
        """(compute seconds, comm seconds) per rank."""
        compute = np.array(
            [model.total_time(sc) for sc in self.rank_counters], dtype=FLOAT
        )
        return compute, self.traffic.rank_seconds.copy()

    def imbalance(self, model: CostModel) -> float:
        return WorkBalancer.imbalance(self.model_rank_seconds(model))


class DistributedRuntime:
    """Runs the distributed pipeline for ``config.ranks`` simulated ranks."""

    def __init__(self, config, ctx: ExecutionContext):
        self.config = config
        self.ctx = ctx
        #: The tree algorithm whose hooks build, refit and evaluate the
        #: per-rank trees.
        self.algo = get_algorithm(config.algorithm)
        self.n_ranks = int(config.ranks)
        if config.ranks_per_node and config.ranks_per_node < self.n_ranks:
            self.fabric = Fabric.hierarchical(
                self.n_ranks, config.ranks_per_node,
                config.interconnect, config.inter_interconnect,
            )
        else:
            self.fabric = Fabric.uniform(self.n_ranks, config.interconnect)
        self.balancer = WorkBalancer(config.rebalance_steps, config.decomposition)
        #: One execution context per simulated rank: same device /
        #: backend / toolchain as the session, separate accounting.
        self.rank_ctx = [
            ExecutionContext(
                ctx.device, backend=ctx.backend, toolchain=ctx.toolchain,
                on_progress_violation=ctx.on_progress_violation,
                warp_width=ctx.warp_width,
            )
            for _ in range(self.n_ranks)
        ]
        self._decomp: DomainDecomposition | None = None
        self._prev_rank_of: np.ndarray | None = None
        self.last_report: DistributedReport | None = None
        #: Cost model used only to convert rank counters into the
        #: per-body weights the work-weighted rebalance feeds on.
        self._feedback_model = CostModel(ctx.device, toolchain=ctx.toolchain)
        # --- incremental maintenance (config.tree_update != "rebuild") -
        from repro.maintenance.keycache import KeyCache

        #: Shared curve-key cache: the partitioner computes global keys
        #: once per step; the per-rank BVH sorts reuse them (satellite
        #: dedupe) instead of re-encoding on per-rank grids.
        self._keycache = KeyCache()
        self._epoch: dict | None = None
        self.maint_counts = {"rebuild": 0, "refit": 0}
        self._last_plans: list | None = None
        #: Set by checkpoint resume (repro.core.suspend): the next
        #: evaluation replays the restored decomposition verbatim and
        #: does not advance the rebalance cadence, so the replayed
        #: construction-time evaluation leaves the cadence phase exactly
        #: where the suspended run had it.
        self._resume_replay = False

    # ------------------------------------------------------------------
    def accelerations(self, system) -> np.ndarray:
        """One distributed force evaluation; global body order in/out."""
        cfg = self.config
        x = np.asarray(system.x, dtype=FLOAT)
        m = np.asarray(system.m, dtype=FLOAT)
        n, dim = x.shape
        K = self.n_ranks
        for rc in self.rank_ctx:
            rc.reset_accounting()
        self.fabric.reset()
        tracer = self.ctx.tracer
        # Driver clock when this evaluation starts: the per-rank lanes
        # emitted at the end are anchored here so they line up with the
        # driver's partition/exchange/force spans in the trace viewer.
        t_eval = tracer.now(0) if tracer.enabled else 0.0

        with self.ctx.step("partition"):
            decomp, rebalanced, migrated, keys = self._partition(x, dim)

        maintained = cfg.tree_update != "rebuild"
        refit = maintained and self._refit_valid(x, keys, rebalanced, migrated)
        if maintained and tracer.enabled:
            tracer.instant("tree_maintenance", args={
                "action": "refit" if refit else "rebuild",
                "rebalanced": bool(rebalanced), "migrated": int(migrated),
            })
        if refit:
            # Keep the epoch membership: fresh re-binning may permute
            # rows *within* a rank even with zero migration, which would
            # scramble the row-to-body mapping of the cached trees.
            decomp = self._epoch["decomp"]
            members = self._epoch["members"]
            xr = [x[i] for i in members]
            mr = [m[i] for i in members]
            trees = self._refit_trees(xr, mr)
            views = self._views(trees)
            with self.ctx.step("exchange"):
                let_bytes = self._exchange_refresh(dim)
            self.maint_counts["refit"] += 1
        else:
            members, xr, mr, trees, views, let_bytes = self._rebuild(
                x, m, decomp, keys)
        counts = decomp.counts

        acc = np.zeros((n, dim), dtype=FLOAT)
        with self.ctx.step("force"):
            for d in range(K):
                if counts[d] == 0:
                    continue
                rc = self.rank_ctx[d]
                with rc.step("force"):
                    acc_d = self.algo.force(trees[d], xr[d], mr[d], cfg, rc,
                                            view=views[d])
                    # All remote halos are walked and evaluated back to
                    # back in one batched launch pair; the fixed launch
                    # overhead is charged on the first source only.
                    launches = 2.0
                    for s in range(K):
                        if s == d or counts[s] == 0:
                            continue
                        acc_d += remote_accelerations(
                            views[s], xr[s], mr[s], xr[d], cfg, rc,
                            launches=launches)
                        launches = 0.0
                    acc[members[d]] = acc_d

        # Roll per-rank counters into the session's machine counters.
        # The merge happens outside any session span window, so the
        # traced per-rank lanes below are the *only* span attribution of
        # this work — summing spans over all lanes stays exact.
        merged = StepCounters()
        for rc in self.rank_ctx:
            merged = merged.merge(rc.step_counters)
        self.ctx.step_counters = self.ctx.step_counters.merge(merged)
        if tracer.enabled:
            from repro.core.simulation import STEP_ORDER

            for r, rc in enumerate(self.rank_ctx):
                tracer.emit_phases(
                    r + 1, rc.step_counters, rc, at=t_eval,
                    order=STEP_ORDER, lane_name=f"rank {r}",
                )

        report = DistributedReport(
            n_ranks=K,
            counts=counts.copy(),
            rank_counters=[rc.step_counters for rc in self.rank_ctx],
            traffic=self.fabric.reset(),
            let_bytes=let_bytes,
            migrated=migrated,
            rebalanced=rebalanced,
            decomposition=decomp,
        )
        self.last_report = report

        # Feed per-rank force seconds back into the next rebalance.
        force_seconds = np.array([
            self._feedback_model.step_time(sc.step("force")).total
            for sc in report.rank_counters
        ])
        self.balancer.observe(decomp, force_seconds)
        return acc

    # ------------------------------------------------------------------
    def _partition(self, x: np.ndarray, dim: int):
        """Key computation, split-point maintenance, migration traffic."""
        n = x.shape[0]
        K = self.n_ranks
        box, keys = self._keys(x)
        if (self._resume_replay and self._decomp is not None
                and self._decomp.n_bodies == n):
            # Checkpoint-resume replay: this evaluation re-runs the one
            # the suspended step already did, so the restored
            # decomposition applies as-is and the cadence must not tick.
            self._resume_replay = False
            decomp = self._decomp
            self._prev_rank_of = decomp.rank_of()
            self._decomp = decomp
            self._charge_partition_ranks(decomp, dim)
            return decomp, False, 0, keys
        self._resume_replay = False
        due = self.balancer.tick()
        stale = self._decomp is None or self._decomp.n_bodies != n
        rebalanced = due or stale
        if rebalanced:
            decomp = decompose(
                x, K, box=box, mode=self.config.decomposition,
                weights=self.balancer.weights_for(n), keys=keys,
            )
            # Split-point agreement is an allgather of K+1 keys.
            self.fabric.allgather((K + 1) * 8.0)
        else:
            # Bodies drifted: re-bin against the cached key splits.
            old = self._decomp
            order = np.argsort(keys, kind="stable").astype(INDEX)
            sorted_keys = keys[order]
            offsets = np.empty(K + 1, dtype=INDEX)
            offsets[0] = 0
            offsets[-1] = n
            offsets[1:-1] = np.searchsorted(
                sorted_keys, old.key_splits[1:-1], side="left"
            )
            decomp = DomainDecomposition(K, order, offsets, old.key_splits, old.mode)

        rank_of = decomp.rank_of()
        migrated = 0
        if self._prev_rank_of is not None and self._prev_rank_of.shape[0] == n:
            moved = np.nonzero(rank_of != self._prev_rank_of)[0]
            migrated = int(moved.size)
            if migrated:
                flow = np.zeros((K, K))
                np.add.at(flow, (self._prev_rank_of[moved], rank_of[moved]), 1.0)
                bb = _body_bytes(dim)
                for s, d in zip(*np.nonzero(flow)):
                    self._send("partition", int(s), int(d), flow[s, d] * bb)
        self._prev_rank_of = rank_of
        self._decomp = decomp

        self._charge_partition_ranks(decomp, dim)
        return decomp, rebalanced, migrated, keys

    def _send(self, step: str, s: int, d: int, nb: float) -> None:
        """Fabric transfer of *nb* bytes from rank *s* to rank *d*,
        charged to both ranks' comm counters under *step*."""
        self.fabric.send(s, d, nb)
        for r in (s, d):
            self.rank_ctx[r].step_counters.step(step).add(
                comm_bytes=nb, comm_messages=1.0)

    def _keys(self, x: np.ndarray):
        """Bounding box and global Hilbert keys of *x*.

        Same grid as hilbert_keys (quantize_to_grid cubifies), but the
        cache makes repeat evaluations at unchanged positions free and
        lets the per-rank BVH sorts reuse the global keys.
        """
        box = compute_bounding_box(x)
        bits = (self.config.bits if self.config.bits is not None
                else max_bits(x.shape[1]))
        return box, self._keycache.keys(x, box, bits=bits, curve="hilbert")

    def _charge_partition_ranks(self, decomp, dim: int) -> None:
        """Each rank encodes + sorts its own bodies (keys are 1 encode,
        ~5 flops/bit/dim; local sort n log n)."""
        for r in range(self.n_ranks):
            nr = float(decomp.counts[r])
            if nr == 0:
                continue
            self.rank_ctx[r].step_counters.step("partition").add(
                flops=nr * 30.0 * dim,
                sort_comparisons=nr * float(np.log2(max(nr, 2.0))),
                bytes_read=nr * (dim + 1) * 8.0,
                bytes_written=nr * 8.0,
                loop_iterations=nr,
                kernel_launches=2.0,
            )

    # ------------------------------------------------------------------
    def _rebuild(self, x, m, decomp, keys):
        """Per-rank trees from scratch plus the LET exchange.

        In maintained mode this starts a refit epoch: the LET plans are
        built with the drift-budget margin so they survive refit steps,
        and the BVH sorts reuse the partition's global keys (encode
        dedupe).  Checkpoint resume replays it at the epoch positions
        (:mod:`repro.core.suspend`).
        """
        cfg = self.config
        members = [decomp.members(r) for r in range(self.n_ranks)]
        xr = [x[i] for i in members]
        mr = [m[i] for i in members]
        maintained = cfg.tree_update != "rebuild"
        margin = 0.0
        if maintained:
            box = compute_bounding_box(x)
            margin = cfg.drift_budget * max(
                cubify(box).longest_side, np.finfo(FLOAT).tiny
            )
        trees = self._build_trees(
            xr, mr, [keys[i] for i in members] if maintained else None)
        views = self._views(trees)
        with self.ctx.step("exchange"):
            let_bytes = self._exchange(decomp, x, views, x.shape[1],
                                       mac_margin=margin)
        if maintained:
            self._epoch = {
                "x_ref": x.copy(),
                "decomp": decomp,
                "members": members,
                "trees": trees,
                "plans": self._last_plans,
                "budget_abs": margin,
                "gate_factor": 2.0 + self.algo.hooks.refit_growth(cfg.theta),
            }
            self.maint_counts["rebuild"] += 1
        return members, xr, mr, trees, views, let_bytes

    def _build_trees(self, xr, mr, keys_r=None):
        """Per-rank bounding box, build and moments via the tree hooks."""
        hooks = self.algo.hooks
        cfg = self.config
        structures = [None] * self.n_ranks
        trees = [None] * self.n_ranks

        def moments(r: int) -> None:
            rc = self.rank_ctx[r]
            with rc.step(hooks.moments_step):
                trees[r] = hooks.moments(structures[r], xr[r], mr[r], cfg, rc)

        # The BVH accumulates moments inside its build
        # (BUILDTREEACCUMULATEMASS); the octree runs a pass of its own.
        fused = hooks.fused_moments
        with self.ctx.step("build_tree"):
            for r in range(self.n_ranks):
                if xr[r].shape[0] == 0:
                    continue
                rc = self.rank_ctx[r]
                box = self.algo._bounding_box(xr[r], rc)
                with rc.step(hooks.build_step):
                    # Global curve keys from the partitioner, when
                    # handed down, stand in for the per-rank encode:
                    # key order is preserved under restriction to a
                    # rank's (curve-contiguous) slice.
                    structures[r] = hooks.build(
                        xr[r], box, cfg, rc,
                        keys=keys_r[r] if keys_r is not None else None)
                if fused:
                    moments(r)
        if not fused:
            with self.ctx.step(hooks.moments_step):
                for r in range(self.n_ranks):
                    if structures[r] is not None:
                        moments(r)
        return trees

    def _refit_trees(self, xr, mr):
        """Refit step: every rank's epoch tree refit in place of a build.

        Leaf membership is the epoch's; bounded drift (the refit gate)
        keeps the epoch geometry a valid MAC bound because the LET
        plans were built with the inflated opening radius.
        """
        hooks = self.algo.hooks
        trees = list(self._epoch["trees"])
        with self.ctx.step(hooks.refit_step):
            for r in range(self.n_ranks):
                if trees[r] is None:
                    continue
                rc = self.rank_ctx[r]
                with rc.step(hooks.refit_step):
                    trees[r] = hooks.refit(trees[r], xr[r], mr[r],
                                           self.config, rc)
        self._epoch["trees"] = trees
        return trees

    def _views(self, trees) -> list:
        return [None if t is None else self.algo.hooks.view(t) for t in trees]

    # ------------------------------------------------------------------
    def _refit_valid(self, x, keys, rebalanced, migrated) -> bool:
        """Can this step reuse the epoch's membership, trees and plans?

        Requires: an epoch of the same size, no rebalance and no owner
        changes this step, every body within the drift gate (the LET
        margin divided by the gate factor, which bounds domain-box plus
        node-geometry motion), and the epoch's curve order still below
        the disorder threshold.  Sensing is charged under ``encode``.
        """
        ep = self._epoch
        if (ep is None or rebalanced or migrated
                or ep["x_ref"].shape != x.shape):
            return False
        gate = ep["budget_abs"] / ep["gate_factor"]
        with self.ctx.step("encode"):
            n, dim = x.shape
            disp = np.sqrt(((x - ep["x_ref"]) ** 2).sum(axis=1))
            drift = float(disp.max(initial=0.0))
            bits = (self.config.bits if self.config.bits is not None
                    else max_bits(dim))
            sb = sense_bits(n, dim, occupancy=self.config.group_size)
            stats = key_disorder(
                coarsen_keys(keys[ep["decomp"].order], bits, sb, dim))
            self.ctx.counters.add(
                flops=(3.0 * dim + 2.0) * n,
                special_flops=float(n),
                bytes_read=8.0 * n * (2.0 * dim + 3.0),
                bytes_irregular=8.0 * n,
                loop_iterations=float(n),
                kernel_launches=2.0,
            )
        if not np.isfinite(gate) or drift > gate:
            return False
        return stats.fraction <= self.config.refit_disorder_threshold

    # ------------------------------------------------------------------
    def _exchange(self, decomp, x, views, dim, *, mac_margin=0.0):
        """LET selection per source rank + modeled halo transfer."""
        cfg = self.config
        K = self.n_ranks
        counts = decomp.counts
        lo, hi = decomp.domain_boxes(x)
        let_bytes = np.zeros((K, K))
        plans: list = [None] * K
        for s in range(K):
            if counts[s] == 0 or views[s] is None:
                continue
            dests = np.array(
                [d for d in range(K) if d != s and counts[d] > 0], dtype=INDEX
            )
            if dests.size == 0:
                continue
            plan = build_let_plan(
                views[s], s, dests, lo, hi, cfg.theta,
                dim=dim, multipole_order=cfg.multipole_order,
                mac_margin=mac_margin,
            )
            plans[s] = plan
            for d, nb in zip(plan.dests, plan.n_bytes):
                self._send("exchange", s, int(d), float(nb))
                let_bytes[s, int(d)] = float(nb)
            # The selection walk itself (pointer chasing on the source).
            visited = float(plan.visited_nodes.sum())
            self.rank_ctx[s].step_counters.step("exchange").add(
                flops=visited * 8.0,
                bytes_irregular=visited * views[s].visit_bytes,
                bytes_read=visited * views[s].visit_bytes,
                traversal_steps=visited,
                warp_traversal_steps=visited,
                loop_iterations=float(dests.size),
                kernel_launches=1.0,
            )
        self._last_plans = plans
        return let_bytes

    def _exchange_refresh(self, dim) -> np.ndarray:
        """Refit-step halo update: ship only refreshed multipole deltas.

        Topology, masses and node ids of every epoch LET are unchanged,
        so each source resends ``visited`` nodes at the (smaller)
        refresh wire size — no selection walk, just a gather of the
        refreshed centres of mass (+ quadrupoles) into send buffers.
        """
        cfg = self.config
        K = self.n_ranks
        rb = let_refresh_bytes(dim, cfg.multipole_order)
        let_bytes = np.zeros((K, K))
        for s in range(K):
            plan = self._epoch["plans"][s]
            if plan is None:
                continue
            for d, visited in zip(plan.dests, plan.visited_nodes):
                nb = float(visited) * rb
                self._send("exchange", s, int(d), nb)
                let_bytes[s, int(d)] = nb
            visited = float(plan.visited_nodes.sum())
            self.rank_ctx[s].step_counters.step("exchange").add(
                flops=visited * 2.0,
                bytes_read=visited * rb,
                bytes_written=visited * rb,
                loop_iterations=float(plan.dests.size),
                kernel_launches=1.0,
            )
        return let_bytes
