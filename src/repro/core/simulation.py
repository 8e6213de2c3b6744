"""The time-integration loop (paper Algorithm 2 / Algorithm 6)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.algorithms import ForceAlgorithm, get_algorithm
from repro.core.config import TREE_ALGORITHMS, SimulationConfig
from repro.machine.counters import StepCounters
from repro.physics.bodies import BodySystem
from repro.physics.integrator import VerletIntegrator
from repro.stdpar.context import ExecutionContext
from repro.types import validate_moments

#: Canonical step order for reporting (paper Algorithm 2 / 6, extended
#: with the distributed phases of repro.distributed).
STEP_ORDER = (
    "partition",
    "bounding_box",
    "encode",
    "sort",
    "build_tree",
    "refit",
    "multipoles",
    "exchange",
    "force",
    "update_position",
)


@dataclass
class StepReport:
    """Accounting for a contiguous run of timesteps."""

    n_steps: int
    counters: StepCounters
    seconds: dict[str, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return sum(self.seconds.values())

    def per_step(self) -> StepCounters:
        """Counters averaged over the timesteps."""
        out = StepCounters()
        for k, c in self.counters.steps.items():
            out.steps[k] = c.scaled(1.0 / max(self.n_steps, 1))
        return out


class Simulation:
    """Binds bodies + algorithm + device context and advances in time.

    Example::

        sim = Simulation(system, SimulationConfig(algorithm="bvh"))
        sim.run(100)
        print(sim.last_report.wall_seconds)
    """

    def __init__(
        self,
        system: BodySystem,
        config: SimulationConfig | None = None,
        *,
        ctx: ExecutionContext | None = None,
        tracer=None,
        metrics=None,
        tree_cache: dict | None = None,
        runtime_state: dict | None = None,
    ):
        system.validate()
        self.system = system
        self.config = config if config is not None else SimulationConfig()
        self.ctx = ctx if ctx is not None else ExecutionContext()
        if tracer is not None:
            #: Structured span tracing (:mod:`repro.obs`); attaching it
            #: here covers the whole pipeline, including the force
            #: evaluation the integrator performs at construction
            #: (``run`` re-anchors the trace to its own window).
            self.ctx.tracer = tracer
        #: Optional :class:`repro.obs.MetricsRegistry`, sampled once per
        #: timestep (and fed by the TrajectoryRecorder when present).
        self.metrics = metrics
        self.algorithm: ForceAlgorithm = get_algorithm(self.config.algorithm)
        if self.config.algorithm in TREE_ALGORITHMS:
            validate_moments(system.x, system.m, self.config.multipole_order)
        self.last_report: StepReport | None = None
        #: Per-simulation cross-step state: the tree maintainer under
        #: ``"_maintainer"``.  An injected dict may carry a ``"_shared"``
        #: :class:`~repro.serve.cache.SharedStructureCache` marker for
        #: cross-session structure sharing.
        self._tree_cache: dict = tree_cache if tree_cache is not None else {}
        #: Simulated multi-rank runtime; ``ranks=1`` bypasses it
        #: entirely so the single-rank path stays bit-identical.
        self.distributed = None
        if self.config.ranks > 1:
            from repro.distributed.runtime import DistributedRuntime

            self.distributed = DistributedRuntime(self.config, self.ctx)
        if runtime_state is not None:
            # Mid-epoch checkpoint resume: reconstruct cached structures,
            # interaction lists, and decomposition state *before* the
            # integrator's construction-time force evaluation, which then
            # replays the suspended step's evaluation bit-exactly.
            from repro.core.suspend import apply_runtime_state

            apply_runtime_state(self, runtime_state)
        self._integrator = VerletIntegrator(
            system, self._accelerations, self.config.dt
        )

    # ------------------------------------------------------------------
    def _accelerations(self, system: BodySystem) -> np.ndarray:
        if self.distributed is not None:
            return self.distributed.accelerations(system)
        return self.algorithm.accelerations(
            system, self.config, self.ctx, cache=self._tree_cache
        )

    def _charge_update_position(self, n_steps: int) -> None:
        """UPDATEPOSITION: two kicks + one drift per step, streaming."""
        n, dim = self.system.n, self.system.dim
        with self.ctx.step("update_position"):
            self.ctx.counters.add(
                flops=float(n_steps) * 6.0 * n * dim,
                bytes_read=float(n_steps) * 3.0 * 8.0 * n * dim,
                bytes_written=float(n_steps) * 2.0 * 8.0 * n * dim,
                loop_iterations=float(n_steps) * n,
                kernel_launches=float(n_steps) * 3.0,
            )

    # ------------------------------------------------------------------
    def run(self, n_steps: int = 1) -> StepReport:
        """Advance *n_steps* timesteps; returns (and stores) accounting."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        self.ctx.reset_accounting()
        tracer = self.ctx.tracer
        if tracer.enabled or self.metrics is not None:
            # Observed path: same integration, one step at a time, so
            # every timestep gets its own trace group and metrics
            # sample.  Physics is identical — the integrator's n-step
            # loop is literally re-entered once per step.
            if self.metrics is not None:
                self.metrics.begin_run(self)
            for k in range(n_steps):
                if tracer.enabled:
                    with tracer.group("step", args={"step": k}):
                        self._integrator.step(1)
                else:
                    self._integrator.step(1)
                if self.metrics is not None:
                    self.metrics.sample_step(self, k)
        else:
            self._integrator.step(n_steps)
        self._charge_update_position(n_steps)
        if self.metrics is not None:
            self.metrics.end_run(self)
        self.last_report = StepReport(
            n_steps=n_steps,
            counters=self.ctx.step_counters,
            seconds=dict(self.ctx.step_seconds),
        )
        return self.last_report

    def advance(self, n_steps: int = 1) -> StepReport:
        """Advance *n_steps* without resetting accounting (service path).

        Like :meth:`run`, but accumulates into the context's existing
        counters instead of re-anchoring them, so several sessions may
        interleave on one shared context/tracer (each on its own trace
        lane) and a session can be driven one scheduler quantum at a
        time.  The returned report covers exactly these steps, computed
        from per-bucket counter deltas; trace step groups carry the
        absolute step index.
        """
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        before = {
            k: c.as_dict() for k, c in self.ctx.step_counters.steps.items()
        }
        seconds_before = dict(self.ctx.step_seconds)
        tracer = self.ctx.tracer
        if tracer.enabled:
            base = self._integrator.steps_taken
            lane = self.ctx.trace_lane
            for k in range(n_steps):
                with tracer.group("step", args={"step": base + k}, lane=lane):
                    self._integrator.step(1)
        else:
            self._integrator.step(n_steps)
        self._charge_update_position(n_steps)
        from repro.obs.tracer import _bucket_delta

        delta = StepCounters()
        for name, c in self.ctx.step_counters.steps.items():
            d = _bucket_delta(before.get(name, {}), c.as_dict())
            if d:
                delta.step(name).add(**d)
        seconds = {}
        for name, v in self.ctx.step_seconds.items():
            dv = v - seconds_before.get(name, 0.0)
            if dv > 0.0:
                seconds[name] = dv
        self.last_report = StepReport(
            n_steps=n_steps, counters=delta, seconds=seconds
        )
        return self.last_report

    def runtime_state(self) -> dict | None:
        """Replayable cross-step cache/decomposition state (or None).

        Feed the returned dict back through ``Simulation(...,
        runtime_state=...)`` — or let the checkpoint path embed it — to
        resume mid-epoch bit-exactly.  See :mod:`repro.core.suspend`.
        """
        from repro.core.suspend import capture_runtime_state

        return capture_runtime_state(self)

    def evaluate_forces(self) -> np.ndarray:
        """One force evaluation without advancing time (accounted)."""
        self.ctx.reset_accounting()
        acc = self._accelerations(self.system)
        self.last_report = StepReport(
            n_steps=1,
            counters=self.ctx.step_counters,
            seconds=dict(self.ctx.step_seconds),
        )
        return acc

    @property
    def time(self) -> float:
        return self._integrator.steps_taken * self.config.dt
