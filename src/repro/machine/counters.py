"""Operation counters — the instrumentation currency of the cost model.

Every algorithm in this library maintains exact (or analytically tight)
counts of the work it performs: floating-point operations, bytes moved,
atomic operations (split into contended and uncontended), parallel-loop
iterations, and SIMT traversal-divergence statistics.  The cost model in
:mod:`repro.machine.costmodel` converts these counts into predicted
runtimes per device, which is how we regenerate the paper's figures
without the paper's hardware.

Counters are plain data; they add and scale like vectors so per-step
counters can be merged into per-timestep and per-run totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class Counters:
    """Additive operation counts for one algorithm phase."""

    #: Floating point operations (adds, muls, divides, sqrts all count 1;
    #: divides/sqrts are additionally counted in ``special_flops``).
    flops: float = 0.0
    #: Divides + square roots, which retire much slower than FMAs.
    special_flops: float = 0.0
    #: Bytes read from / written to memory (assuming cold caches for
    #: streaming phases; tree phases use per-visit estimates).
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    #: Subset of ``bytes_read`` that is random-access (pointer chasing
    #: through tree nodes); charged at the device's irregular-access
    #: bandwidth rather than streaming bandwidth.
    bytes_irregular: float = 0.0
    #: Atomic RMW / load / store operations, and how many of them are
    #: expected to contend with another thread.
    atomic_ops: float = 0.0
    contended_atomic_ops: float = 0.0
    #: Subset of ``atomic_ops`` that are synchronizing RMWs (acquire /
    #: release / acq_rel / seq_cst compare-exchange, fetch_add, store):
    #: these pay the coherence latency the paper attributes to Ampere's
    #: partitioned L2; relaxed atomics and atomic loads do not.
    sync_atomic_ops: float = 0.0
    #: Iterations executed by parallel loops (for_each elements).
    loop_iterations: float = 0.0
    #: Comparison count of parallel sorts.
    sort_comparisons: float = 0.0
    #: Tree-traversal node visits, summed over threads.
    traversal_steps: float = 0.0
    #: Maximum per-thread traversal length (SIMT lanes wait for the
    #: longest walker in the warp; the gap to the mean is divergence).
    traversal_steps_max: float = 0.0
    #: Warp-granularity traversal work: sum over warps of
    #: (max steps in warp) * (warp width).  What a SIMT device actually
    #: executes; equals ``traversal_steps`` when there is no divergence.
    warp_traversal_steps: float = 0.0
    #: Grouped traversal: total interaction-list entries emitted (the
    #: lists make one memory round-trip — written by the build walk,
    #: re-read by the evaluation).
    interaction_list_size: float = 0.0
    #: Grouped traversal: node visits of the list-*building* walks (one
    #: walk per body group; warp-synchronous by construction).
    list_build_steps: float = 0.0
    #: Grouped traversal: body-node pairs evaluated from the lists (the
    #: dense tile work, including padding entries of partial groups).
    list_eval_interactions: float = 0.0
    #: Multipole-acceptance tests executed (per-body walk visits for
    #: lockstep, per-group walk visits for grouped, (target, source)
    #: pair tests for the dual-tree walk) — the list-build pressure the
    #: ``--profile`` table surfaces for every traversal mode.
    mac_evals: float = 0.0
    #: Dual traversal: cell-cell pairs accepted far-field and evaluated
    #: once via M2L into a local expansion.
    pairs_accepted_cc: float = 0.0
    #: Pairs classified near-field and deferred to the body-level
    #: kernels (interaction-list entries re-evaluated every step).
    pairs_deferred: float = 0.0
    #: Bytes crossing the modeled interconnect fabric (LET halo nodes,
    #: migrated bodies, collective partials); charged at link bandwidth
    #: by the cost model, never at memory bandwidth.
    comm_bytes: float = 0.0
    #: Point-to-point fabric messages; each pays the link latency.
    comm_messages: float = 0.0
    #: Number of parallel-algorithm invocations (kernel launches).
    kernel_launches: float = 0.0
    #: Flat evaluation: batch kernels launched per step — one per
    #: rectangle-block bucket (node sources and near-field blocks).
    #: gemm reports none: its modeled kernel is the grouped tile,
    #: charged through ``kernel_launches``.
    flat_launches: float = 0.0
    #: Near-field body pairs the lists name in ordered form (what the
    #: tile kernels would evaluate), before the n3l dedup.
    near_pairs_naive: float = 0.0
    #: Near-field pair evaluations actually executed by the flat path
    #: (two-sided pairs count once); ``naive / evaluated`` is the n3l
    #: dedup ratio surfaced by ``--profile`` and the metrics block.
    near_pairs_evaluated: float = 0.0
    #: Number of scheduler preemptions / lock retries observed (only
    #: populated by the virtual-thread backend).
    lock_retries: float = 0.0
    #: Dependent node operations executed inside a single work-group
    #: (stage 1 of the two-stage Burtscher-Pingali/Thüring builder);
    #: they cannot use the device's full parallelism.
    serial_node_ops: float = 0.0

    def __add__(self, other: "Counters") -> "Counters":
        if not isinstance(other, Counters):
            return NotImplemented
        out = Counters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        # max-like fields must not be summed
        out.traversal_steps_max = max(self.traversal_steps_max, other.traversal_steps_max)
        return out

    def scaled(self, k: float) -> "Counters":
        """Return a copy with every additive field multiplied by *k*.

        Used to extrapolate counts measured at a scaled-down problem size
        to the paper's sizes (documented in EXPERIMENTS.md); max-like
        fields scale logarithmically and are handled by the caller.
        """
        out = Counters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) * k)
        out.traversal_steps_max = self.traversal_steps_max
        return out

    def add(self, **kw: float) -> None:
        """In-place accumulate named fields (``c.add(flops=8*n)``)."""
        for name, value in kw.items():
            if name == "traversal_steps_max":
                self.traversal_steps_max = max(self.traversal_steps_max, value)
            else:
                setattr(self, name, getattr(self, name) + value)

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class StepCounters:
    """Counters split by pipeline step (paper Algorithm 2 / 6).

    Keys follow the paper's step names: ``bounding_box``, ``sort``
    (Hilbert sort; absent for the octree), ``build_tree``, ``multipoles``
    (fused with ``build_tree`` for the BVH), ``force``,
    ``update_position``.
    """

    steps: dict[str, Counters] = field(default_factory=dict)

    def step(self, name: str) -> Counters:
        if name not in self.steps:
            self.steps[name] = Counters()
        return self.steps[name]

    def total(self) -> Counters:
        out = Counters()
        for c in self.steps.values():
            out = out + c
        return out

    def merge(self, other: "StepCounters") -> "StepCounters":
        out = StepCounters({k: v for k, v in self.steps.items()})
        for k, v in other.steps.items():
            out.steps[k] = out.steps.get(k, Counters()) + v
        return out
