"""One hosted simulation session.

A :class:`Session` wraps a :class:`~repro.core.Simulation` the way a
service hosts a job: materialized lazily on first scheduling, advanced
one *step quantum* at a time (``Simulation.advance`` — no accounting
reset, so many sessions interleave on one shared tracer, each on its
own timeline lane), and suspendable to an in-memory checkpoint through
the exact ``save_checkpoint`` / ``load_checkpoint`` path — which embeds
the mid-epoch runtime state, so a session evicted from residency and
later resumed retraces the bytes it would have produced had it stayed
resident.

Every modeled cost the session incurs — materialization (the
integrator's construction-time force evaluation), each quantum, and
checkpoint encode/decode — is measured from its own context's counter
deltas through the server's cost model, and is what the fair scheduler
charges against the owning tenant.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.machine.counters import Counters
from repro.workloads import (
    galaxy_collision,
    plummer_sphere,
    solar_system,
    uniform_cube,
)

#: Workload registry: spec name -> seeded generator.
WORKLOADS = {
    "galaxy": galaxy_collision,
    "plummer": plummer_sphere,
    "cube": uniform_cube,
    "solar": solar_system,
}


class SessionState:
    """Lifecycle states (plain strings: JSON- and log-friendly)."""

    QUEUED = "queued"        # admitted, waiting for its first quantum
    RESIDENT = "resident"    # materialized, schedulable
    SUSPENDED = "suspended"  # checkpointed to RAM, schedulable
    DONE = "done"
    REJECTED = "rejected"


def final_state_digest(system) -> str:
    """blake2b over the exact final position + velocity bytes.

    Recorded on completion and carried in the serve result rows, so a
    result comparison (time-sliced vs unlimited residency, shared vs
    isolated cache, run vs rerun) is a string equality check.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(system.x).tobytes())
    h.update(np.ascontiguousarray(system.v).tobytes())
    return h.hexdigest()


def _default_config() -> SimulationConfig:
    # Shared-structure-cache eligible (rebuild / reuse 1 / ranks 1).
    return SimulationConfig(algorithm="bvh", traversal="grouped",
                            group_size=16)


@dataclass(frozen=True)
class SessionSpec:
    """An immutable session request (what the traffic generator emits)."""

    tenant: str
    name: str
    workload: str = "plummer"
    n: int = 256
    steps: int = 8
    seed: int = 0
    #: Modeled-clock arrival time, seconds.
    arrival: float = 0.0
    config: SimulationConfig = field(default_factory=_default_config)

    def make_system(self):
        try:
            gen = WORKLOADS[self.workload]
        except KeyError:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {sorted(WORKLOADS)}"
            ) from None
        return gen(self.n, seed=self.seed)


class Session:
    """Lifecycle + cost accounting of one hosted simulation."""

    def __init__(self, spec: SessionSpec, *, server):
        self.spec = spec
        self.server = server
        self.state = SessionState.QUEUED
        self.sim: Simulation | None = None
        self._checkpoint: io.BytesIO | None = None
        self.steps_done = 0
        self.quanta = 0
        #: Modeled device seconds this session has been charged.
        self.device_seconds = 0.0
        self.admitted_at = 0.0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Deterministic modeled wait estimate from admission.
        self.estimated_wait = 0.0
        #: Trace lane the server assigned (0 = untraced).
        self.lane = 0
        #: Digest of the final (x, v) state, set on completion.
        self.result_digest: str | None = None

    # ------------------------------------------------------------------
    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def remaining(self) -> int:
        return self.spec.steps - self.steps_done

    @property
    def done(self) -> bool:
        return self.remaining <= 0

    @property
    def resident(self) -> bool:
        return self.sim is not None

    def _delta_cost(self, sim: Simulation, before: dict) -> float:
        """Modeled seconds of work since *before* (bucket snapshots)."""
        from repro.obs.tracer import _bucket_delta

        total = 0.0
        model = self.server.model
        for name, c in sim.ctx.step_counters.steps.items():
            d = _bucket_delta(before.get(name, {}), c.as_dict())
            if d:
                cd = Counters()
                cd.add(**d)
                total += model.step_time(cd).total
        return total

    def _checkpoint_cost(self) -> float:
        """Modeled seconds of one state encode/decode pass.

        One streaming read + write of the SoA state (positions,
        velocities, masses): the suspend and the resume each pay this.
        """
        n = self.spec.n
        dim = 3
        nbytes = (2.0 * dim + 1.0) * 8.0 * n
        c = Counters()
        c.add(bytes_read=nbytes, bytes_written=nbytes,
              loop_iterations=float(n), kernel_launches=1.0)
        return self.server.model.step_time(c).total

    # ------------------------------------------------------------------
    def materialize(self) -> float:
        """Create (or resume) the Simulation; returns the modeled cost."""
        if self.sim is not None:
            return 0.0
        ctx = self.server._session_ctx(self)
        cost = 0.0
        if self._checkpoint is not None:
            from repro.io import load_checkpoint

            self._checkpoint.seek(0)
            sim = load_checkpoint(
                self._checkpoint, ctx=ctx,
                tree_cache=self.server._session_tree_cache(),
            )
            self._checkpoint = None
            cost += self._checkpoint_cost()
        else:
            spec = self.spec
            sim = Simulation(
                spec.make_system(), spec.config, ctx=ctx,
                tree_cache=self.server._session_tree_cache(),
            )
        # The construction-time force evaluation is real service work:
        # charge it to the tenant like any quantum.
        cost += self._delta_cost(sim, {})
        self.sim = sim
        self.state = SessionState.RESIDENT
        return cost

    def run_quantum(self, quantum_steps: int) -> float:
        """Advance up to *quantum_steps*; returns the modeled cost."""
        assert self.sim is not None, "session not resident"
        n_steps = min(quantum_steps, self.remaining)
        rep = self.sim.advance(n_steps)
        self.steps_done += n_steps
        self.quanta += 1
        # advance() reports exactly this quantum's counter deltas.
        cost = self.server.model.total_time(rep.counters)
        if self.done:
            self.result_digest = final_state_digest(self.sim.system)
            self.state = SessionState.DONE
            self.sim = None
        return cost

    def suspend(self) -> float:
        """Checkpoint to RAM and release residency; returns the cost.

        Goes through the real checkpoint writer, mid-epoch runtime
        state included, so the later resume is bit-exact.
        """
        assert self.sim is not None, "session not resident"
        from repro.io import save_checkpoint

        buf = io.BytesIO()
        save_checkpoint(buf, self.sim)
        self._checkpoint = buf
        self.sim = None
        self.state = SessionState.SUSPENDED
        return self._checkpoint_cost()
