"""BabelStream TRIAD through the stdpar layer (Table I validation).

The paper validates each experimental environment by running the
BabelStream ISO C++ parallel-algorithms TRIAD kernel and comparing the
achieved bandwidth with the hardware's theoretical peak (Table I).  We
do the same for the model: the TRIAD kernel (``a[i] = b[i] + s * c[i]``)
is expressed as a stdpar ``for_each`` with a vectorization-safe batch
path, its counters feed the cost model, and the resulting predicted
bandwidth per catalog device reproduces the "Exp." column.  On the host
the kernel additionally runs for real, giving a measured Python/numpy
bandwidth figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.machine.catalog import DEVICES
from repro.machine.costmodel import CostModel
from repro.machine.counters import StepCounters
from repro.machine.device import Device
from repro.stdpar.context import ExecutionContext
from repro.stdpar.kernel import kernel_from_functions
from repro.stdpar.policy import par_unseq


@dataclass(frozen=True)
class TriadResult:
    device: Device
    n: int
    #: GB/s predicted by the cost model (catalog devices) — the stand-in
    #: for Table I's "Exp." measurement.
    predicted_gbs: float
    #: GB/s actually achieved by the numpy batch path on the host
    #: (only for the host device; None otherwise).
    measured_gbs: float | None
    #: Theoretical peak from Table I.
    theoretical_gbs: float

    @property
    def efficiency(self) -> float:
        return self.predicted_gbs / self.theoretical_gbs


def babelstream_triad(
    device: Device,
    n: int = 2**25,
    *,
    measure_host: bool | None = None,
    repeats: int = 3,
) -> TriadResult:
    """Run/model TRIAD with ``n`` FP64 elements on *device*."""
    ctx = ExecutionContext(device=device)
    scalar = 0.4

    # Keep real allocations modest: the counters are what matter for the
    # model; the host measurement uses the real arrays.
    n_alloc = min(n, 2**24)
    a = np.zeros(n_alloc)
    b = np.random.default_rng(1).random(n_alloc)
    c = np.random.default_rng(2).random(n_alloc)

    def batch(idx: np.ndarray) -> None:
        np.add(b[: len(idx)], scalar * c[: len(idx)], out=a[: len(idx)])

    kernel = kernel_from_functions("triad", batch=batch)

    with ctx.step("triad") as counters:
        from repro.stdpar.algorithms import for_each

        for_each(par_unseq, np.arange(n_alloc), kernel, ctx)
    # TRIAD moves 3 doubles per element (2 reads + 1 write) and does an
    # FMA; account at the *requested* n.
    scale = n / n_alloc
    counters.add(
        flops=2.0 * n_alloc * scale,
        bytes_read=16.0 * n_alloc * scale,
        bytes_written=8.0 * n_alloc * scale,
    )

    steps = StepCounters({"triad": counters})
    model = CostModel(device)
    t_pred = model.total_time(steps)
    bytes_moved = 24.0 * n
    predicted_gbs = bytes_moved / t_pred / 1e9

    measured = None
    if measure_host if measure_host is not None else device.key == "host":
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            np.add(b, scalar * c, out=a)
            best = min(best, time.perf_counter() - t0)
        measured = 24.0 * n_alloc / best / 1e9

    return TriadResult(
        device=device,
        n=n,
        predicted_gbs=predicted_gbs,
        measured_gbs=measured,
        theoretical_gbs=device.theoretical_bw_gbs,
    )


def triad_table(n: int = 2**25) -> list[TriadResult]:
    """Table I reproduction: TRIAD on every catalog device + the host."""
    out = []
    for d in DEVICES.values():
        out.append(babelstream_triad(d, n))
    return out


def format_triad_table(results: list[TriadResult]) -> str:
    """Render results in the shape of Table I's bandwidth columns."""
    lines = [
        f"{'HW':<28} {'Th. [GB/s]':>12} {'Model [GB/s]':>13} {'Host-measured':>14}",
    ]
    for r in results:
        host = f"{r.measured_gbs:.1f}" if r.measured_gbs is not None else "-"
        lines.append(
            f"{r.device.name:<28} {r.theoretical_gbs:>12.0f} "
            f"{r.predicted_gbs:>13.1f} {host:>14}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The full BabelStream kernel family.  The paper's validation uses TRIAD
# (above); the remaining kernels complete the benchmark as shipped, each
# expressed through the stdpar layer with its canonical byte/flop counts.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamKernel:
    """One BabelStream kernel: name, traffic split, flops per element."""

    name: str
    read_bytes_per_element: float
    write_bytes_per_element: float
    flops_per_element: float
    #: applies the kernel over (a, b, c); writes in place (Dot returns)
    apply: "typing.Callable"

    @property
    def bytes_per_element(self) -> float:
        return self.read_bytes_per_element + self.write_bytes_per_element


def _stream_kernels() -> list[StreamKernel]:
    import typing  # noqa: F401  (annotation above)

    s = 0.4
    return [
        StreamKernel("Copy", 8.0, 8.0, 0.0, lambda a, b, c: np.copyto(c, a)),
        StreamKernel("Mul", 8.0, 8.0, 1.0, lambda a, b, c: np.multiply(s, c, out=b)),
        StreamKernel("Add", 16.0, 8.0, 1.0, lambda a, b, c: np.add(a, b, out=c)),
        StreamKernel("Triad", 16.0, 8.0, 2.0, lambda a, b, c: np.add(b, s * c, out=a)),
        StreamKernel("Dot", 16.0, 0.0, 2.0, lambda a, b, c: float(a @ b)),
    ]


@dataclass(frozen=True)
class StreamResult:
    device: Device
    kernel: str
    predicted_gbs: float
    measured_gbs: float | None


def babelstream_suite(
    device: Device,
    n: int = 2**24,
    *,
    measure_host: bool | None = None,
) -> list[StreamResult]:
    """All five BabelStream kernels on *device* (model + optional host
    measurement), mirroring the benchmark's standard report."""
    measure = measure_host if measure_host is not None else device.key == "host"
    n_alloc = min(n, 2**23)
    rng = np.random.default_rng(3)
    a = rng.random(n_alloc)
    b = rng.random(n_alloc)
    c = rng.random(n_alloc)

    out = []
    for k in _stream_kernels():
        ctx = ExecutionContext(device=device)
        with ctx.step(k.name) as counters:
            kernel = kernel_from_functions(
                k.name.lower(), batch=lambda idx, k=k: k.apply(a, b, c)
            )
            from repro.stdpar.algorithms import for_each

            for_each(par_unseq, np.arange(n_alloc), kernel, ctx)
        scale = n / n_alloc
        counters.add(
            flops=k.flops_per_element * n_alloc * scale,
            bytes_read=k.read_bytes_per_element * n_alloc * scale,
            bytes_written=k.write_bytes_per_element * n_alloc * scale,
        )
        t = CostModel(device).total_time(StepCounters({k.name: counters}))
        predicted = k.bytes_per_element * n / t / 1e9

        measured = None
        if measure:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                k.apply(a, b, c)
                best = min(best, time.perf_counter() - t0)
            measured = k.bytes_per_element * n_alloc / best / 1e9
        out.append(StreamResult(device, k.name, predicted, measured))
    return out
