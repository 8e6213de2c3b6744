"""The benchmark's workloads: seeded inputs and one timed block each.

A *block* is one deterministic unit of timed work: a fresh
``Simulation`` built from one input and advanced a fixed number of
steps.  The same input always produces the same block -- the same
steps, the same list rebuilds, the same final state -- so a run repeats
blocks and reports medians, and two runs of one seed can be compared
digest for digest.  A seed expands into several independent inputs so
that one run averages over more than one realisation of the workload.
"""

from __future__ import annotations

import gc
import hashlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Import every layer module up front: set-up time must not include lazy
# imports, and the span wrappers can only swap names a module has bound.
import repro.bvh.build  # noqa: F401
import repro.distributed.let  # noqa: F401
import repro.distributed.partition  # noqa: F401
import repro.distributed.runtime  # noqa: F401
import repro.geometry.hilbert  # noqa: F401
import repro.maintenance.maintainer  # noqa: F401
import repro.octree.build_vectorized  # noqa: F401
import repro.octree.force  # noqa: F401
import repro.octree.multipoles  # noqa: F401
import repro.physics.local_expansion  # noqa: F401
import repro.traversal.dual  # noqa: F401
import repro.traversal.engine  # noqa: F401
import repro.traversal.flat  # noqa: F401
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.machine.costmodel import CostModel
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.workloads import galaxy_collision, plummer_sphere

#: Bodies per input whose accelerations are checked against the exact sum.
ACCURACY_SAMPLE = 1024


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sub_seeds(seed: int, count: int) -> list[int]:
    """*count* independent generator seeds derived from *seed*."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def force_errors(acc, x, m, gravity: GravityParams, seed: int) -> tuple[float, int]:
    """(sum of |a - a_exact| / |a_exact|, bodies) over a seeded body sample.

    The reference is the exact O(N^2) sum (the kernel behind
    ``repro.allpairs``) for at most :data:`ACCURACY_SAMPLE` bodies.
    """
    n = len(x)
    idx = np.arange(n)
    if n > ACCURACY_SAMPLE:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, ACCURACY_SAMPLE, replace=False))
    ref = pairwise_accelerations(x, m, gravity, targets=idx, tile=256)
    rel = np.linalg.norm(acc[idx] - ref, axis=1) / np.linalg.norm(ref, axis=1)
    return float(np.sum(rel)), rel.size


@dataclass
class Block:
    """What one timed block produced."""

    attempted: int
    failed: int = 0
    setup_s: float = 0.0
    #: Host seconds of every completed timestep.
    step_s: list[float] = field(default_factory=list)
    #: Modeled device seconds summed over the completed timesteps.
    model_s: float = 0.0
    digest: str | None = None
    #: Per-step StepReports (for the traced host/model breakdown).
    reports: list = field(default_factory=list)
    #: Per-layer quantities read from the program's own reports.
    layer: dict = field(default_factory=dict)
    #: (x, m, accelerations, gravity) at the end, for the accuracy check.
    final: tuple | None = None
    error: str | None = None

    def fail(self, steps: int, exc: BaseException | None = None) -> "Block":
        self.failed += steps
        if exc is not None and self.error is None:
            self.error = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        return self


@dataclass(frozen=True)
class SimWorkload:
    """One ``Simulation`` configuration over seeded generated bodies."""

    name: str
    generate: Callable
    n: int
    config: SimulationConfig
    #: Timed steps per block.
    steps: int
    #: Independent inputs one seed expands into.
    realizations: int
    #: force_rel_err above this fails the run.
    tolerance: float
    #: Nominal seconds of one cycle (one block per input) on a 2-vCPU
    #: x86 VM; a run makes ``seconds // cycle_s`` cycles, at least one,
    #: so the amount of timed work depends only on ``--seconds``.
    cycle_s: float

    def inputs(self, seed: int) -> list[int]:
        return sub_seeds(seed, self.realizations)

    def warmup(self) -> None:
        Simulation(self.generate(min(self.n, 512), seed=0), self.config).run(2)

    def block(self, seed: int, recorder) -> Block:
        out = Block(attempted=self.steps)
        gc.collect()
        t0 = time.perf_counter()
        try:
            sim = Simulation(self.generate(self.n, seed=seed), self.config)
        except Exception as exc:  # a failed input is a failed block
            return out.fail(self.steps, exc)
        out.setup_s = time.perf_counter() - t0
        model = CostModel(sim.ctx.device, toolchain=sim.ctx.toolchain)
        maint = sim._tree_cache.get("_maintainer")
        counts0 = dict(maint.counts) if maint is not None else None
        imbalance = comm = 0.0
        gc.collect()
        for k in range(self.steps):
            try:
                t = time.perf_counter()
                with recorder.root("step"):
                    rep = sim.run(1)
                dt = time.perf_counter() - t
            except Exception as exc:
                return out.fail(self.steps - k, exc)
            if not (np.isfinite(sim.system.x).all()
                    and np.isfinite(sim.system.v).all()):
                return out.fail(self.steps - k)
            out.step_s.append(dt)
            out.reports.append(rep)
            if sim.distributed is not None:
                dist = sim.distributed.last_report
                out.model_s += dist.model_step_seconds(model)
                imbalance += dist.imbalance(model)
                comm += dist.traffic.total_bytes
            else:
                out.model_s += model.total_time(rep.counters)
        out.digest = digest(sim.system.x, sim.system.v)
        out.layer = {"distributed.imbalance": imbalance / self.steps,
                     "distributed.comm_bytes": comm / self.steps}
        if counts0 is not None:
            d = {k: maint.counts[k] - counts0[k] for k in counts0}
            out.layer["maintenance.refit_frac"] = d["refit"] / max(
                d["refit"] + d["rebuild"], 1)
            out.layer["maintenance.lists_dropped"] = d["lists_dropped"] / self.steps
        out.final = (sim.system.x.copy(), sim.system.m.copy(),
                     np.array(sim._integrator.accel, copy=True),
                     sim.config.gravity)
        return out

    def accuracy(self, seed: int, block: Block) -> tuple[float, int]:
        x, m, acc, gravity = block.final
        return force_errors(acc, x, m, gravity, seed)


def make_workloads(scale: str = "full") -> dict[str, SimWorkload]:
    """The benchmark's workloads; ``scale="tiny"`` shrinks every size."""

    def size(n: int, steps: int, realizations: int) -> dict:
        if scale == "tiny":
            return {"n": max(96, n // 25), "steps": 3, "realizations": 2}
        return {"n": n, "steps": steps, "realizations": realizations}

    wl = [
        SimWorkload(
            "galaxy-bvh-refit", galaxy_collision,
            config=SimulationConfig(algorithm="bvh", traversal="grouped",
                                    tree_update="refit"),
            tolerance=1e-2, cycle_s=13.0, **size(3000, 12, 7)),
        SimWorkload(
            "plummer-octree-rebuild", plummer_sphere,
            config=SimulationConfig(algorithm="octree", traversal="grouped"),
            tolerance=1e-2, cycle_s=9.5, **size(4000, 3, 3)),
        SimWorkload(
            "galaxy-bvh-dual-ranks2", galaxy_collision,
            config=SimulationConfig(algorithm="bvh", traversal="dual", ranks=2),
            tolerance=1e-2, cycle_s=10.0, **size(8000, 6, 3)),
    ]
    return {w.name: w for w in wl}
