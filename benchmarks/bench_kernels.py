"""Host-kernel microbenchmarks: real wall-clock times of this
reproduction's vectorized pipeline steps (not modeled device times).

These measure the Python/numpy kernels themselves, giving the baseline
behind every figure's "host" measurement and tracking regressions in
the implementation.  The ``kernels-layers`` group times the three force
layers of the benchmark workloads (``make_workloads`` in
``perfbench/workloads.py``) on the inputs of their first step: the list
walk (``build_dual_lists``), the batch preparation (``build_flat_lists``)
and the batch kernel (``evaluate_flat``), each over every call one set-up
plus one step makes.  Run them alone with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py \
        -k layers --benchmark-only
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import repro.traversal.driver
import repro.traversal.dual
import repro.traversal.flat
from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_accelerations
from repro.core.simulation import Simulation
from repro.geometry.aabb import compute_bounding_box, quantize_to_grid
from repro.geometry.hilbert import hilbert_encode
from repro.geometry.morton import morton_encode
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_accelerations
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.gravity import GravityParams
from repro.traversal.dual import build_dual_lists
from repro.traversal.flat import build_flat_lists, evaluate_flat
from repro.workloads import galaxy_collision

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import make_workloads  # noqa: E402

N = 4000
PARAMS = GravityParams(softening=0.05)


@pytest.fixture(scope="module")
def system():
    return galaxy_collision(N, seed=0)


@pytest.fixture(scope="module")
def grid(system):
    return quantize_to_grid(system.x, compute_bounding_box(system.x), 16)


@pytest.fixture(scope="module")
def octree(system):
    pool = build_octree_vectorized(system.x)
    compute_multipoles_vectorized(pool, system.x, system.m)
    return pool


@pytest.fixture(scope="module")
def bvh(system):
    return build_bvh(system.x, system.m)


@pytest.mark.benchmark(group="kernels-geometry")
def test_bounding_box(benchmark, system):
    benchmark(compute_bounding_box, system.x)


@pytest.mark.benchmark(group="kernels-geometry")
def test_morton_encode(benchmark, grid):
    benchmark(morton_encode, grid, 16)


@pytest.mark.benchmark(group="kernels-geometry")
def test_hilbert_encode(benchmark, grid):
    benchmark(hilbert_encode, grid, 16)


@pytest.mark.benchmark(group="kernels-build")
def test_octree_build(benchmark, system):
    benchmark(build_octree_vectorized, system.x)


@pytest.mark.benchmark(group="kernels-build")
def test_octree_multipoles(benchmark, system):
    pool = build_octree_vectorized(system.x)
    benchmark(compute_multipoles_vectorized, pool, system.x, system.m)


@pytest.mark.benchmark(group="kernels-build")
def test_bvh_build(benchmark, system):
    benchmark(build_bvh, system.x, system.m)


@pytest.mark.benchmark(group="kernels-force")
def test_octree_force(benchmark, system, octree):
    benchmark.pedantic(
        octree_accelerations, args=(octree, system.x, system.m, PARAMS),
        kwargs={"theta": 0.5}, rounds=2, iterations=1,
    )


@pytest.mark.benchmark(group="kernels-force")
def test_bvh_force(benchmark, bvh):
    benchmark.pedantic(
        bvh_accelerations, args=(bvh, PARAMS), kwargs={"theta": 0.5},
        rounds=2, iterations=1,
    )


@pytest.mark.benchmark(group="kernels-force")
def test_allpairs_force(benchmark, system):
    from repro.allpairs.classic import allpairs_accelerations

    benchmark.pedantic(
        allpairs_accelerations, args=(system.x, system.m, PARAMS),
        rounds=2, iterations=1,
    )


WORKLOADS = make_workloads()


def _first_step_calls(name: str) -> dict:
    """Arguments of every walk, batch preparation and batch evaluation
    that setting up *name* and running its first step makes."""
    w = WORKLOADS[name]
    calls: dict = {"walk": [], "prep": [], "eval": []}

    def spy(kind, fn):
        def wrapper(*args, **kw):
            calls[kind].append((args, kw))
            return fn(*args, **kw)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.traversal.dual, "build_dual_lists",
                   spy("walk", build_dual_lists))
        prep = spy("prep", build_flat_lists)
        mp.setattr(repro.traversal.driver, "build_flat_lists", prep)
        mp.setattr(repro.traversal.flat, "build_flat_lists", prep)
        mp.setattr(repro.traversal.flat, "evaluate_flat",
                   spy("eval", evaluate_flat))
        Simulation(w.generate(w.n, seed=0), w.config).run(1)
    return calls


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def first_step(request):
    calls = _first_step_calls(request.param)
    assert all(calls.values()), calls.keys()
    return calls


def _replay(fn, calls):
    for args, kw in calls:
        fn(*args, **kw)


@pytest.mark.benchmark(group="kernels-layers")
def test_layers_list_walk(benchmark, first_step):
    benchmark.pedantic(_replay, args=(build_dual_lists, first_step["walk"]),
                       rounds=3, iterations=1)


@pytest.mark.benchmark(group="kernels-layers")
def test_layers_flat_prep(benchmark, first_step):
    benchmark.pedantic(_replay, args=(build_flat_lists, first_step["prep"]),
                       rounds=3, iterations=1)


@pytest.mark.benchmark(group="kernels-layers")
def test_layers_flat_eval(benchmark, first_step):
    benchmark.pedantic(_replay, args=(evaluate_flat, first_step["eval"]),
                       rounds=3, iterations=1)
