"""Metrics registry: counters, gauges, histograms, per-step sampling.

The registry is the aggregation half of :mod:`repro.obs`.  A
:class:`~repro.core.simulation.Simulation` constructed with
``metrics=MetricsRegistry(...)`` samples it once per timestep:
counter *deltas* of the step feed derived gauges (MAC acceptance ratio,
interaction-list cache hit rate, per-rank imbalance), cumulative
counters (flops, comm bytes, kernel launches), and the maintenance
refit/rebuild split; every sample then runs the configured
:mod:`~repro.obs.watchdog` hooks.  Conservation diagnostics
(:func:`conservation_sample`) are shared with
:class:`~repro.core.trace.TrajectoryRecorder`, which routes its
energy/momentum drift through :meth:`MetricsRegistry.observe_conservation`
— one sampling path for traces and conservation benches.

Serialize with :meth:`MetricsRegistry.as_dict` (the ``--metrics-out``
payload) or :meth:`metrics_block` (the compact per-record block of the
``repro-bench-v2`` schema, :mod:`repro.bench.record`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.watchdog import Watchdog, logger


@dataclass
class Counter:
    """Monotonically accumulating total."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-written value (``None`` until first set)."""

    value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Streaming summary: count / sum / min / max / mean."""

    count: int = 0
    total: float = 0.0
    vmin: float = field(default=float("inf"))
    vmax: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {"count": self.count, "sum": self.total,
                "min": self.vmin, "max": self.vmax, "mean": self.mean}


def conservation_sample(system, gravity, *, compute_potential: bool = True) -> dict:
    """The shared conservation diagnostics sample.

    One code path feeds both the :class:`TrajectoryRecorder` time series
    and the metrics registry; ``compute_potential=False`` skips the
    O(N²) potential (``potential`` is then ``None``).
    """
    from repro.physics.diagnostics import (
        angular_momentum,
        center_of_mass,
        kinetic_energy,
        momentum,
    )
    from repro.physics.gravity import potential_energy

    return {
        "kinetic": kinetic_energy(system),
        "potential": (
            potential_energy(system.x, system.m, gravity)
            if compute_potential else None
        ),
        "momentum": momentum(system),
        "angular_momentum": angular_momentum(system),
        "center_of_mass": center_of_mass(system),
    }


class MetricsRegistry:
    """Named instruments + per-step samples + watchdog alerts."""

    def __init__(self, watchdogs: list[Watchdog] | None = None):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.watchdogs: list[Watchdog] = list(watchdogs or [])
        #: One dict per sampled instant (per-step and conservation rows).
        self.samples: list[dict[str, Any]] = []
        #: Structured watchdog warnings, in firing order.
        self.alerts: list[dict[str, Any]] = []
        self._last_totals: dict[str, float] = {}
        self._model = None

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        return self.histograms.setdefault(name, Histogram())

    # ------------------------------------------------------------------
    def _model_for(self, sim):
        if self._model is None:
            from repro.machine.costmodel import CostModel

            self._model = CostModel(sim.ctx.device, toolchain=sim.ctx.toolchain)
        return self._model

    def begin_run(self, sim) -> None:
        """Re-baseline the per-step deltas (the context was just reset)."""
        self._last_totals = sim.ctx.step_counters.total().as_dict()

    def end_run(self, sim) -> None:
        """Fold post-loop charges (bulk ``update_position``) into the
        cumulative counters, so they equal the run report's totals."""
        totals = sim.ctx.step_counters.total().as_dict()
        for name in ("flops", "comm_bytes", "comm_messages",
                     "kernel_launches", "flat_launches"):
            self.counter(name).inc(
                totals.get(name, 0.0) - self._last_totals.get(name, 0.0))
        self._last_totals = totals

    def sample_step(self, sim, step_index: int) -> dict[str, Any]:
        """Sample the standard per-step metrics after one timestep."""
        totals = sim.ctx.step_counters.total().as_dict()
        delta = {
            k: v - self._last_totals.get(k, 0.0) for k, v in totals.items()
        }
        self._last_totals = totals
        sample: dict[str, Any] = {"step": int(step_index)}

        for name in ("flops", "comm_bytes", "comm_messages",
                     "kernel_launches", "flat_launches"):
            self.counter(name).inc(delta.get(name, 0.0))
        sample["flops"] = delta.get("flops", 0.0)
        sample["comm_bytes"] = delta.get("comm_bytes", 0.0)

        # n3l near-field dedup: naive ordered pairs / deduped
        # evaluations, from this step's flat-kernel deltas.  Only
        # meaningful when the flat evaluator actually ran.
        evaluated = delta.get("near_pairs_evaluated", 0.0)
        if evaluated > 0.0:
            ratio = delta.get("near_pairs_naive", 0.0) / evaluated
            self.gauge("n3l_dedup_ratio").set(ratio)
            self.histogram("n3l_dedup_ratio").observe(ratio)
            sample["n3l_dedup_ratio"] = ratio

        mac = delta.get("mac_evals", 0.0)
        accepted = (delta.get("interaction_list_size", 0.0)
                    + delta.get("pairs_accepted_cc", 0.0))
        # Only the list-building traversals (grouped/dual) count accepted
        # approximations; the lockstep walk tests MACs without a
        # distinguishable acceptance counter, so the ratio stays unset.
        if mac > 0.0 and accepted > 0.0:
            ratio = min(accepted / mac, 1.0)
            self.gauge("mac_acceptance").set(ratio)
            self.histogram("mac_acceptance").observe(ratio)
            sample["mac_acceptance"] = ratio

        if delta.get("list_eval_interactions", 0.0) > 0.0:
            hit = 1.0 if delta.get("list_build_steps", 0.0) == 0.0 else 0.0
            self.counter("ilist_reuses" if hit else "ilist_builds").inc()
            self.histogram("ilist_cache_hit").observe(hit)
            sample["ilist_cache_hit"] = hit

        counts = None
        if sim.distributed is not None:
            counts = sim.distributed.maint_counts
        elif "_maintainer" in sim._tree_cache:
            counts = sim._tree_cache["_maintainer"].counts
        if counts is not None:
            rebuilds = float(counts.get("rebuild", 0))
            refits = float(counts.get("refit", 0))
            self.gauge("maint_rebuilds").set(rebuilds)
            self.gauge("maint_refits").set(refits)
            if rebuilds + refits > 0:
                frac = refits / (rebuilds + refits)
                self.gauge("refit_fraction").set(frac)
                sample["refit_fraction"] = frac

        if sim.distributed is not None and sim.distributed.last_report is not None:
            report = sim.distributed.last_report
            imb = float(report.imbalance(self._model_for(sim)))
            self.gauge("rank_imbalance").set(imb)
            self.histogram("rank_imbalance").observe(imb)
            sample["rank_imbalance"] = imb

        self.samples.append(sample)
        self._run_watchdogs(sample, sim)
        return sample

    def observe_conservation(
        self,
        step: int,
        *,
        energy_drift: float | None = None,
        momentum_drift: float | None = None,
        sim=None,
    ) -> dict[str, Any]:
        """Record conservation drifts (the TrajectoryRecorder feed)."""
        sample: dict[str, Any] = {"step": int(step)}
        if energy_drift is not None:
            self.gauge("energy_drift").set(energy_drift)
            sample["energy_drift"] = float(energy_drift)
        if momentum_drift is not None:
            self.gauge("momentum_drift").set(momentum_drift)
            sample["momentum_drift"] = float(momentum_drift)
        self.samples.append(sample)
        self._run_watchdogs(sample, sim)
        return sample

    def _run_watchdogs(self, sample: dict[str, Any], sim) -> None:
        for wd in self.watchdogs:
            alert = wd.check(sample, sim)
            if alert is not None:
                self.alerts.append(alert.as_dict())
                logger.warning("obs alert [%s] step %d: %s",
                               alert.kind, alert.step, alert.message)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Full serialization (the ``--metrics-out`` payload)."""
        return {
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {k: v.value for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: v.as_dict() for k, v in sorted(self.histograms.items())
            },
            "samples": self.samples,
            "alerts": self.alerts,
        }

    def metrics_block(self) -> dict[str, Any]:
        """Compact final-value block for ``repro-bench-v2`` records."""
        return {
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {
                k: v.value for k, v in sorted(self.gauges.items())
                if v.value is not None
            },
            "histograms": {
                k: v.as_dict() for k, v in sorted(self.histograms.items())
            },
            "n_alerts": len(self.alerts),
        }
