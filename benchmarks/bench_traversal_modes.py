"""Microbenchmark: per-body lockstep vs group-coherent force traversal.

Times CALCULATEFORCE only (trees prebuilt) on the galaxy workload for
both tree strategies, across the traversal modes and — with lists
cached — the three list evaluators:

* ``lockstep``     — the per-body masked-numpy walk (paper Fig. 3);
* ``grouped``      — group-coherent traversal, interaction lists built
  *and* evaluated in the same call with no entry dict (``auto`` resolves
  to flat there too, so this row runs the ``flat+build`` path);
* ``flat+build``   — the same call with a fresh per-call entry dict and
  ``eval_mode="flat"``: lists built, flattened and evaluated once, which
  is exactly what a rebuild-every-step ``Simulation`` pays per step;
* ``tile+cache``   — cached lists, per-group dense-tile evaluation (the
  deterministic reference kernel);
* ``gemm+cache``   — cached lists, every entry a node source in dense
  BLAS batches;
* ``flat+cache``   — cached lists, batch evaluation with the near
  field deduped Newton's-third-law style (the default ``auto`` pick for
  multi-body groups); ``gemm+cache`` is the same batches without the
  dedup.

The three cached evaluators run again on order-2 (quadrupole) trees;
those rows carry ``multipole_order: 2`` in their config, and their
error against the order-2 tile rows.

Usage::

    python benchmarks/bench_traversal_modes.py            # full, N=10000
    python benchmarks/bench_traversal_modes.py --smoke    # quick CI check
    pytest benchmarks/bench_traversal_modes.py            # smoke via pytest

The full run asserts the tentpole targets: >= 3x host wall-clock
speedup of grouped (build+eval) over lockstep at N=1e4, >= 1.8x of
flat over tile on the cached-list evaluation (measured ~2-2.9x; the
floor leaves jitter margin for a wall-clock assert), n3l dedup ratio
>= 1.2, and flat matching tile within 1e-12 relative error.  (Flat does *not* beat
gemm on this host — OpenBLAS tiles sit in L2 at ~13 ns/pair — so the
flat/gemm ratio is reported, not asserted; see EXPERIMENTS.md for the
hardware economics.  The n3l dedup ratio is geometry-bound near ~1.3 on
the galaxy workload: only mutually-near group pairs dedupe, and the
one-sided MAC emits asymmetric near lists for unequal group extents.)

Wall-clock-dependent ratios (speedups) are nested under ``extra.host``
so :mod:`check_bench_regression` — which compares every *numeric*
``extra`` — only pins the deterministic metrics (model seconds,
interaction counts, errors, dedup ratio).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from repro.bench import BenchRecord, format_table, write_bench_json
from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_accelerations, bvh_tree_view
from repro.machine.catalog import get_device
from repro.machine.costmodel import CostModel
from repro.obs import MetricsRegistry
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_accelerations, octree_tree_view
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.accuracy import relative_l2_error
from repro.physics.gravity import GravityParams
from repro.stdpar.context import ExecutionContext
from repro.traversal import tree_accelerations
from repro.workloads import galaxy_collision

PARAMS = GravityParams(softening=0.05)
THETA = 0.5
GROUP_SIZE = 32
DEVICE = "gh200"
EVAL_MODES = ("tile", "gemm", "flat")
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _metrics_block(dedup_ratio: float) -> dict:
    """The ``repro-bench-v2`` metrics block carrying the dedup ratio."""
    reg = MetricsRegistry()
    reg.gauge("n3l_dedup_ratio").set(dedup_ratio)
    reg.histogram("n3l_dedup_ratio").observe(dedup_ratio)
    return reg.metrics_block()


def _records(rows: list[dict], n: int) -> list[BenchRecord]:
    """Rows in the shared BENCH_*.json schema (repro.bench.record)."""
    out = []
    for r in rows:
        order = r.get("order", 1)
        if order == 1:
            extra: dict = {"rel_l2_vs_lockstep": r["rel_l2_vs_lockstep"],
                           "host": {"speedup": r["speedup"]}}
        else:
            extra = {"host": {}}
        if r["mode"] == "flat+build" or order == 2:
            extra["host"]["seconds"] = r["seconds"]
        for k in ("interactions", "rel_l2_vs_tile", "n3l_dedup_ratio"):
            if k in r:
                extra[k] = r[k]
        config = {"tree": r["tree"], "mode": r["mode"], "theta": THETA,
                  "group_size": GROUP_SIZE, "softening": PARAMS.softening}
        if order == 2:
            config["multipole_order"] = 2
        out.append(BenchRecord(
            workload="galaxy", n=n, config=config,
            host_seconds=r["seconds"], model_seconds=r.get("model_seconds"),
            extra=extra,
            metrics=(_metrics_block(r["n3l_dedup_ratio"])
                     if "n3l_dedup_ratio" in r else None),
        ))
    return out


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sweep(n: int, *, group_size: int = GROUP_SIZE, reps: int = 3) -> list[dict]:
    """Measure all (tree, mode) combinations at size *n*."""
    system = galaxy_collision(n, seed=0)
    x, m = system.x, system.m

    pool = build_octree_vectorized(x)
    compute_multipoles_vectorized(pool, x, m, None)
    bvh = build_bvh(x, m)
    model = CostModel(get_device(DEVICE))

    def octree_grouped(c, mode="auto", ctx=None):
        return tree_accelerations(octree_tree_view(pool), x, m, PARAMS,
                                  theta=THETA, group_size=group_size, cache=c,
                                  eval_mode=mode, ctx=ctx)

    def bvh_grouped(c, mode="auto", ctx=None):
        return tree_accelerations(bvh_tree_view(bvh), x, m, PARAMS,
                                  theta=THETA, group_size=group_size, cache=c,
                                  eval_mode=mode, ctx=ctx)

    cases = {
        "octree": (lambda: octree_accelerations(pool, x, m, PARAMS,
                                                theta=THETA), octree_grouped),
        "bvh": (lambda: bvh_accelerations(bvh, PARAMS, theta=THETA),
                bvh_grouped),
    }

    rows = []
    for tree, (lockstep, grouped) in cases.items():
        a_lock = lockstep()
        t_lock = _best_of(lockstep, reps)

        # No cache: lists built and evaluated in one call; auto resolves
        # to flat, as with an entry dict.
        a_grp = grouped(None)
        t_build = _best_of(lambda: grouped(None), reps)
        cache: dict = {}

        err = relative_l2_error(a_grp, a_lock)
        rows.append({"tree": tree, "mode": "lockstep",
                     "seconds": t_lock, "speedup": 1.0,
                     "rel_l2_vs_lockstep": 0.0})
        rows.append({"tree": tree, "mode": "grouped",
                     "seconds": t_build, "speedup": t_lock / t_build,
                     "rel_l2_vs_lockstep": err})

        # Cached-list evaluators.  The warm-up call populates the
        # cached flat/self-pair precomputes; the steady ctx pass then
        # yields the per-step counters the cost model prices.
        accs: dict[str, np.ndarray] = {}
        for mode in EVAL_MODES:
            grouped(cache, mode)                       # warm precomputes
            steady = ExecutionContext()
            accs[mode] = grouped(cache, mode, steady)
            c = steady.counters
            row = {
                "tree": tree, "mode": f"{mode}+cache",
                "seconds": _best_of(lambda: grouped(cache, mode), reps),
                "model_seconds": model.step_time(c).total,
                "interactions": float(c.list_eval_interactions),
                "rel_l2_vs_lockstep": relative_l2_error(accs[mode], a_lock),
            }
            row["speedup"] = t_lock / row["seconds"]
            if mode == "flat":
                row["rel_l2_vs_tile"] = relative_l2_error(
                    accs["flat"], accs["tile"])
                row["n3l_dedup_ratio"] = (
                    c.near_pairs_naive / c.near_pairs_evaluated)
            rows.append(row)

        # A rebuild-every-step Simulation passes a fresh entry dict per
        # call, so auto picks flat and every step pays the list build
        # and the flat expansion; the entry is dropped after the call.
        steady = ExecutionContext()
        a_build = grouped({}, "flat", steady)
        t_fb = _best_of(lambda: grouped({}, "flat"), reps)
        rows.append({
            "tree": tree, "mode": "flat+build", "seconds": t_fb,
            "speedup": t_lock / t_fb,
            "model_seconds": model.step_time(steady.counters).total,
            "rel_l2_vs_lockstep": relative_l2_error(a_build, a_lock),
            "bitwise_vs_cache": bool(np.array_equal(a_build, accs["flat"])),
        })

    # Order 2: the cached evaluators with quadrupole terms, timed
    # against the order-2 tile rows.
    compute_multipoles_vectorized(pool, x, m, None, order=2)
    bvh2 = build_bvh(x, m, order=2)
    views2 = {"octree": octree_tree_view(pool), "bvh": bvh_tree_view(bvh2)}
    for tree, view in views2.items():
        def grouped2(c, mode, ctx=None, view=view):
            return tree_accelerations(view, x, m, PARAMS, theta=THETA,
                                      group_size=group_size, cache=c,
                                      eval_mode=mode, ctx=ctx)

        cache = {}
        tile = None
        for mode in EVAL_MODES:                        # tile first
            grouped2(cache, mode)                      # warm precomputes
            steady = ExecutionContext()
            acc = grouped2(cache, mode, steady)
            tile = acc if tile is None else tile
            rows.append({
                "tree": tree, "mode": f"{mode}+cache", "order": 2,
                "seconds": _best_of(lambda: grouped2(cache, mode), reps),
                "model_seconds": model.step_time(steady.counters).total,
                "interactions": float(
                    steady.counters.list_eval_interactions),
                "rel_l2_vs_tile": relative_l2_error(acc, tile),
            })
    return rows


def _report(rows: list[dict], n: int) -> str:
    return format_table(
        rows, title=f"Traversal modes, galaxy N={n}, theta={THETA}, "
                    f"group_size={GROUP_SIZE} (host wall clock)")


def _by(rows: list[dict], order: int = 1) -> dict:
    return {(r["tree"], r["mode"]): r for r in rows
            if r.get("order", 1) == order}


def run(n: int, *, reps: int, min_speedup: float | None,
        min_flat_vs_tile: float | None, min_dedup: float) -> int:
    rows = sweep(n, reps=reps)
    print(_report(rows, n))
    path = write_bench_json("traversal_modes", _records(rows, n),
                            out_dir=RESULTS_DIR,
                            meta={"theta": THETA, "group_size": GROUP_SIZE,
                                  "device": DEVICE, "reps": reps})
    print(f"[saved to {path}]")
    status = 0
    by = _by(rows)
    for r in rows:
        if r["mode"] == "grouped":
            # Conservative group MAC: grouped only opens more nodes, so
            # its error vs the all-pairs truth is within the lockstep
            # bound; vs lockstep itself it stays theta-sized.
            if not r["rel_l2_vs_lockstep"] < 0.12 * THETA:
                print(f"FAIL: {r['tree']} grouped error "
                      f"{r['rel_l2_vs_lockstep']:.3g} exceeds theta bound")
                status = 1
            if min_speedup is not None and r["speedup"] < min_speedup:
                print(f"FAIL: {r['tree']} grouped speedup {r['speedup']:.2f}x "
                      f"< required {min_speedup}x")
                status = 1
    for tree in ("octree", "bvh"):
        flat = by[(tree, "flat+cache")]
        tile = by[(tree, "tile+cache")]
        gemm = by[(tree, "gemm+cache")]
        build = by[(tree, "flat+build")]
        vs_tile = tile["seconds"] / flat["seconds"]
        vs_gemm = gemm["seconds"] / flat["seconds"]
        print(f"{tree}: flat vs tile {vs_tile:.2f}x, vs gemm {vs_gemm:.2f}x "
              f"(host), n3l dedup {flat['n3l_dedup_ratio']:.3f}, "
              f"rel L2 vs tile {flat['rel_l2_vs_tile']:.2e}, "
              f"flat+build {build['seconds']:.3f} s")
        if not build["bitwise_vs_cache"]:
            print(f"FAIL: {tree} flat+build accelerations differ from "
                  f"flat+cache")
            status = 1
        if not flat["rel_l2_vs_tile"] < 1e-12:
            print(f"FAIL: {tree} flat deviates from tile by "
                  f"{flat['rel_l2_vs_tile']:.3g} (>1e-12)")
            status = 1
        if min_flat_vs_tile is not None and vs_tile < min_flat_vs_tile:
            print(f"FAIL: {tree} flat only {vs_tile:.2f}x over tile "
                  f"(required {min_flat_vs_tile}x)")
            status = 1
        if flat["n3l_dedup_ratio"] < min_dedup:
            print(f"FAIL: {tree} n3l dedup ratio "
                  f"{flat['n3l_dedup_ratio']:.3f} < required {min_dedup}")
            status = 1
    by2 = _by(rows, order=2)
    for tree in ("octree", "bvh"):
        t_tile = by2[(tree, "tile+cache")]["seconds"]
        for mode in ("gemm+cache", "flat+cache"):
            r = by2[(tree, mode)]
            print(f"{tree} order 2: {mode} {r['seconds']:.3f} s "
                  f"({t_tile / r['seconds']:.2f}x tile), rel L2 vs tile "
                  f"{r['rel_l2_vs_tile']:.2e}")
            if not r["rel_l2_vs_tile"] < 1e-12:
                print(f"FAIL: {tree} order-2 {mode} deviates from tile by "
                      f"{r['rel_l2_vs_tile']:.3g} (>1e-12)")
                status = 1
    if status == 0 and min_speedup is not None:
        msg = f"OK: grouped >= {min_speedup}x over lockstep"
        if min_flat_vs_tile is not None:
            msg += f", flat >= {min_flat_vs_tile}x over tile"
        print(msg + " on both trees")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small, fast run (no speedup floor; CI sanity check)")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--reps", type=int, default=None)
    args = ap.parse_args(argv)
    if args.smoke:
        n = args.n or 2000
        return run(n, reps=args.reps or 1, min_speedup=1.0,
                   min_flat_vs_tile=None, min_dedup=1.1)
    n = args.n or 10_000
    return run(n, reps=args.reps or 3, min_speedup=3.0,
               min_flat_vs_tile=1.8, min_dedup=1.2)


try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in CI
    pytest = None

if pytest is not None:

    @pytest.mark.benchmark(group="traversal")
    def test_traversal_modes_smoke(benchmark, emit, results_dir):
        rows = benchmark.pedantic(lambda: sweep(2000, reps=1),
                                  rounds=1, iterations=1)
        emit("traversal_modes_smoke", _report(rows, 2000))
        write_bench_json("traversal_modes", _records(rows, 2000),
                         out_dir=results_dir,
                         meta={"theta": THETA, "group_size": GROUP_SIZE,
                               "device": DEVICE, "smoke": True})
        by = _by(rows)
        for tree in ("octree", "bvh"):
            assert by[(tree, "grouped")]["speedup"] > 1.0
            assert by[(tree, "grouped")]["rel_l2_vs_lockstep"] < 0.12 * THETA
            flat = by[(tree, "flat+cache")]
            assert flat["rel_l2_vs_tile"] < 1e-12
            assert flat["n3l_dedup_ratio"] > 1.1
            assert flat["speedup"] > 1.0
            assert by[(tree, "flat+build")]["bitwise_vs_cache"]
            for mode in ("gemm+cache", "flat+cache"):
                assert _by(rows, 2)[(tree, mode)]["rel_l2_vs_tile"] < 1e-12


if __name__ == "__main__":
    sys.exit(main())
