"""Microbenchmark: dual-tree cell-cell traversal vs grouped traversal.

Times CALCULATEFORCE only (tree prebuilt) on the Plummer workload for
the BVH strategy in two traversal modes:

* ``grouped`` — group-coherent interaction lists, every accepted node
  evaluated against every body of the group;
* ``dual``    — cell-cell MAC promotes well-separated (target box,
  source node) pairs to one M2L into a local expansion, evaluated once
  per target *cell* and pushed to bodies by the L2L/L2P downsweep.

Both modes are measured in steady state (lists cached, eval only) and
costed on the pinned Table I device, so the reported ratios are
deterministic and regression-checked:

* ``interaction_ratio`` — evaluated interactions, grouped / dual
  (near pairs + one per cc pair + one L2P per body);
* ``model_force_ratio`` — modeled steady-state force seconds,
  grouped / dual.

Usage::

    python benchmarks/bench_dual_tree.py            # full, N=1e4 and 1e5
    python benchmarks/bench_dual_tree.py --smoke    # quick CI check
    pytest benchmarks/bench_dual_tree.py            # smoke via pytest

The full run asserts the tentpole targets at N=1e5: >= 3x fewer
evaluated interactions and >= 1.5x modeled force-phase time vs grouped,
with the dual error vs (sampled) all-pairs inside the theta bound and
within a small constant of grouped's.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from repro.bench import BenchRecord, format_table, write_bench_json
from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_tree_view
from repro.machine.catalog import get_device
from repro.machine.costmodel import CostModel
from repro.physics.accuracy import relative_l2_error
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.stdpar.context import ExecutionContext
from repro.traversal import tree_accelerations
from repro.workloads import plummer_sphere

PARAMS = GravityParams(softening=0.05)
THETA = 0.5
GROUP_SIZE = 32
CC_MAC = 1.5
ORDER = 2
DEVICE = "gh200"
ERR_SAMPLE = 512
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _records(rows: list[dict]) -> list[BenchRecord]:
    """Rows in the shared BENCH_*.json schema (repro.bench.record)."""
    return [
        BenchRecord(
            workload="plummer", n=r["n"],
            config={"tree": "bvh", "mode": r["mode"], "theta": THETA,
                    "group_size": GROUP_SIZE, "cc_mac": CC_MAC,
                    "expansion_order": ORDER, "device": DEVICE,
                    "softening": PARAMS.softening},
            host_seconds=r["host_seconds"], model_seconds=r["model_seconds"],
            extra={"interactions": r["interactions"],
                   "interaction_ratio": r["interaction_ratio"],
                   "model_force_ratio": r["model_force_ratio"],
                   "rel_l2_vs_pairwise": r["rel_l2_vs_pairwise"]},
        )
        for r in rows
    ]


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sweep(n: int, *, reps: int = 3) -> list[dict]:
    """Measure both traversal modes at size *n* (steady state)."""
    system = plummer_sphere(n, seed=7)
    x, m = system.x, system.m
    bvh = build_bvh(x, m)
    model = CostModel(get_device(DEVICE))

    sample = np.linspace(0, n - 1, min(ERR_SAMPLE, n)).astype(np.int64)
    ref = pairwise_accelerations(x, m, PARAMS, targets=sample)

    def grouped(cache, ctx=None):
        return tree_accelerations(bvh_tree_view(bvh), x, m, PARAMS,
                                  theta=THETA, group_size=GROUP_SIZE,
                                  cache=cache, ctx=ctx)

    def dual(cache, ctx=None):
        return tree_accelerations(bvh_tree_view(bvh), x, m, PARAMS,
                                  traversal="dual", theta=THETA,
                                  group_size=GROUP_SIZE, cc_mac=CC_MAC,
                                  expansion_order=ORDER, cache=cache, ctx=ctx)

    rows = []
    for mode, fn in (("grouped", grouped), ("dual", dual)):
        cache: dict = {}
        acc = fn(cache, ExecutionContext())           # list build pass
        steady = ExecutionContext()
        fn(cache, steady)                              # cached-list pass
        c = steady.counters
        # evaluated interactions of one steady step: near tile pairs,
        # plus one M2L per accepted cell-cell pair and one L2P per body
        # in dual mode (cc counters are zero for grouped).
        inter = c.list_eval_interactions + c.pairs_accepted_cc
        if c.pairs_accepted_cc > 0:
            inter += n
        rows.append({
            "n": n, "mode": mode,
            "host_seconds": _best_of(lambda: fn(cache), reps),
            "model_seconds": model.step_time(c).total,
            "interactions": float(inter),
            "rel_l2_vs_pairwise": relative_l2_error(acc[sample], ref),
        })
    g, d = rows
    for r in rows:
        r["interaction_ratio"] = g["interactions"] / r["interactions"]
        r["model_force_ratio"] = g["model_seconds"] / r["model_seconds"]
    return rows


def _report(rows: list[dict]) -> str:
    return format_table(
        rows, title=f"Dual-tree vs grouped, plummer, theta={THETA}, "
                    f"group_size={GROUP_SIZE}, cc_mac={CC_MAC}, "
                    f"order={ORDER} (modeled on {DEVICE})")


def _check(rows: list[dict], *, min_inter: float | None,
           min_model: float | None) -> int:
    status = 0
    by = {r["mode"]: r for r in rows}
    eg, ed = (by[m]["rel_l2_vs_pairwise"] for m in ("grouped", "dual"))
    if not ed < 0.12 * THETA:
        print(f"FAIL: dual error {ed:.3g} exceeds theta bound")
        status = 1
    if not ed <= max(3.0 * eg, 1e-9):
        print(f"FAIL: dual error {ed:.3g} > 3x grouped ({eg:.3g})")
        status = 1
    d = by["dual"]
    if min_inter is not None and d["interaction_ratio"] < min_inter:
        print(f"FAIL: interaction ratio {d['interaction_ratio']:.2f}x "
              f"< required {min_inter}x")
        status = 1
    if min_model is not None and d["model_force_ratio"] < min_model:
        print(f"FAIL: modeled force ratio {d['model_force_ratio']:.2f}x "
              f"< required {min_model}x")
        status = 1
    return status


def run(sizes: list[int], *, reps: int, min_inter: float | None,
        min_model: float | None, gate_n: int) -> int:
    all_rows: list[dict] = []
    status = 0
    for n in sizes:
        rows = sweep(n, reps=reps)
        print(_report(rows))
        gate = n >= gate_n
        status |= _check(rows, min_inter=min_inter if gate else None,
                         min_model=min_model if gate else None)
        all_rows += rows
    path = write_bench_json("dual_tree", _records(all_rows),
                            out_dir=RESULTS_DIR,
                            meta={"theta": THETA, "group_size": GROUP_SIZE,
                                  "cc_mac": CC_MAC, "expansion_order": ORDER,
                                  "device": DEVICE, "reps": reps})
    print(f"[saved to {path}]")
    if status == 0 and min_inter is not None:
        d = [r for r in all_rows
             if r["mode"] == "dual" and r["n"] >= gate_n][-1]
        print(f"OK: dual {d['interaction_ratio']:.2f}x fewer interactions, "
              f"{d['model_force_ratio']:.2f}x modeled force time at "
              f"N={d['n']}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small, fast run (no ratio floor; CI sanity check)")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--reps", type=int, default=None)
    args = ap.parse_args(argv)
    if args.smoke:
        # No model-ratio floor at toy sizes: the downsweep's fixed
        # per-level launch cost dominates until the far field is large.
        n = args.n or 2000
        return run([n], reps=args.reps or 1, min_inter=1.0, min_model=None,
                   gate_n=0)
    sizes = [args.n] if args.n else [10_000, 100_000]
    return run(sizes, reps=args.reps or 2, min_inter=3.0, min_model=1.5,
               gate_n=100_000 if not args.n else args.n)


try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in CI
    pytest = None

if pytest is not None:

    @pytest.mark.benchmark(group="traversal")
    def test_dual_tree_smoke(benchmark, emit, results_dir):
        rows = benchmark.pedantic(lambda: sweep(2000, reps=1),
                                  rounds=1, iterations=1)
        emit("dual_tree_smoke", _report(rows))
        write_bench_json("dual_tree", _records(rows), out_dir=results_dir,
                         meta={"theta": THETA, "group_size": GROUP_SIZE,
                               "cc_mac": CC_MAC, "expansion_order": ORDER,
                               "device": DEVICE, "smoke": True})
        assert _check(rows, min_inter=1.0, min_model=None) == 0


if __name__ == "__main__":
    sys.exit(main())
