"""Measure pipelines and project them onto the device catalog."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.extrapolate import extrapolate_counters
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.machine.costmodel import CostModel
from repro.machine.counters import StepCounters
from repro.machine.device import Device
from repro.physics.bodies import BodySystem
from repro.stdpar.context import ExecutionContext


@dataclass
class MeasuredRun:
    """One measured (workload, algorithm, N) pipeline execution."""

    algorithm: str
    n: int
    counters: StepCounters           # per single timestep
    wall_seconds: float              # host wall clock per timestep
    measured_at: int                 # size actually executed
    simt_width: int = 32
    meta: dict = field(default_factory=dict)

    @property
    def host_throughput(self) -> float:
        """Bodies/s of the host Python kernels."""
        return self.n / self.wall_seconds if self.wall_seconds > 0 else float("inf")


def measure_pipeline(
    make_system,
    algorithm: str,
    n: int,
    *,
    config: SimulationConfig | None = None,
    steps: int = 1,
    max_direct: int = 40_000,
    ladder: tuple[float, ...] = (0.25, 0.5, 1.0),
    simt_width: int = 32,
) -> MeasuredRun:
    """Run the pipeline and return per-timestep counters for size *n*.

    ``make_system(n) -> BodySystem`` builds the workload.  Sizes up to
    *max_direct* execute directly; larger sizes are measured on a
    ladder of subsizes and extrapolated (see
    :mod:`repro.bench.extrapolate`).  O(N²) algorithms cap direct
    execution harder since their cost explodes.
    """
    base = config if config is not None else SimulationConfig()
    cfg = base.with_(algorithm=algorithm, simt_width=simt_width)
    quadratic = algorithm.startswith("all-pairs")
    cap = min(max_direct, 20_000) if quadratic else max_direct

    if n <= cap:
        counters, wall = _run_once(make_system, n, cfg, steps)
        return MeasuredRun(algorithm, n, counters, wall, n, simt_width)

    sizes = sorted({max(1024, int(cap * f)) for f in ladder})
    measured = []
    walls = []
    for s in sizes:
        c, w = _run_once(make_system, s, cfg, steps)
        measured.append(c)
        walls.append(w)
    counters = extrapolate_counters(sizes, measured, n)
    # Host wall time extrapolated with the same power law on totals.
    from repro.bench.extrapolate import _extrapolate_field

    wall = _extrapolate_field(np.asarray(sizes, float), np.asarray(walls), float(n))
    return MeasuredRun(algorithm, n, counters, wall, sizes[-1], simt_width,
                       meta={"ladder": sizes})


def _run_once(make_system, n: int, cfg: SimulationConfig, steps: int):
    system: BodySystem = make_system(n)
    ctx = ExecutionContext()
    sim = Simulation(system, cfg, ctx=ctx)
    report = sim.run(steps)
    per_step = report.per_step()
    return per_step, report.wall_seconds / max(steps, 1)


def project_throughput(
    run: MeasuredRun,
    device: Device,
    *,
    toolchain: str | None = None,
    sequential: bool = False,
) -> float | None:
    """Projected throughput (bodies/s) of *run* on *device*.

    Returns ``None`` when the algorithm cannot run there (the paper's
    missing bars: Octree / All-Pairs-Col on AMD and Intel GPUs).
    """
    from repro.core.algorithms import get_algorithm

    alg = get_algorithm(run.algorithm)
    if not device.progress.satisfies(alg.required_progress):
        if not run.meta.get("unsafe_relax_policy", False):
            return None
    model = CostModel(device, toolchain=toolchain, sequential=sequential)
    t = model.total_time(run.counters)
    return run.n / t if t > 0 else float("inf")


def throughput_table(
    runs: list[MeasuredRun],
    devices: list[Device],
    *,
    sequential: bool = False,
) -> list[dict]:
    """Rows of (device, algorithm, N, projected bodies/s)."""
    rows = []
    for d in devices:
        for r in runs:
            thr = project_throughput(r, d, sequential=sequential)
            rows.append(
                {
                    "device": d.name,
                    "algorithm": r.algorithm,
                    "n": r.n,
                    "throughput": thr,
                    "host_throughput": r.host_throughput,
                }
            )
    return rows
