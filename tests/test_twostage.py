"""Tests for the two-stage octree builder (the Thüring et al. comparator)."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.machine import get_device
from repro.machine.costmodel import CostModel
from repro.octree.build_twostage import build_octree_twostage
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.traversal import canonical_structure, validate_tree
from repro.physics.gravity import GravityParams
from repro.stdpar.context import ExecutionContext
from repro.stdpar.progress import ForwardProgress
from repro.workloads import galaxy_collision

PARAMS = GravityParams(softening=0.05)


class TestBuilder:
    def test_same_tree_as_other_builders(self, small_cloud):
        a = build_octree_twostage(small_cloud.x, bits=8)
        b = build_octree_vectorized(small_cloud.x, bits=8)
        assert canonical_structure(a) == canonical_structure(b)
        validate_tree(a, small_cloud.n)

    def test_serial_stage_accounted(self, small_cloud):
        ctx = ExecutionContext()
        build_octree_twostage(small_cloud.x, bits=8, ctx=ctx)
        c = ctx.counters
        assert c.serial_node_ops > 0          # stage 1 exists
        assert c.atomic_ops == 0              # no global atomics at all
        assert c.sync_atomic_ops == 0
        assert c.kernel_launches == 2.0       # the two kernels

    def test_stage_split_respects_target(self, small_cloud):
        """A larger subtree target keeps more levels in stage 1."""
        serial = {}
        for target in (8, 4096):
            ctx = ExecutionContext()
            build_octree_twostage(small_cloud.x, bits=8, ctx=ctx,
                                  subtree_target=target)
            serial[target] = ctx.counters.serial_node_ops
        assert serial[4096] > serial[8]

    def test_invalid_target(self, small_cloud):
        with pytest.raises(ValueError):
            build_octree_twostage(small_cloud.x, subtree_target=0)

    def test_empty_input(self):
        pool = build_octree_twostage(np.zeros((0, 3)))
        assert pool.n_nodes == 1


class TestAlgorithm:
    def test_runs_everywhere(self):
        """Unlike the Concurrent Octree, the two-stage pipeline needs
        only weakly parallel progress: it runs on AMD/Intel GPUs."""
        from repro.core.algorithms import get_algorithm

        alg = get_algorithm("octree-2stage")
        assert alg.required_progress == ForwardProgress.WEAKLY_PARALLEL
        for key in ("mi300x", "pvc1550", "h100", "genoa"):
            assert alg.supports(get_device(key), SimulationConfig())

    def test_matches_octree_trajectory(self):
        base = galaxy_collision(200, seed=5)
        finals = {}
        for alg in ("octree", "octree-2stage"):
            s = base.copy()
            Simulation(s, SimulationConfig(algorithm=alg, theta=0.4,
                                           dt=1e-3, gravity=PARAMS)).run(5)
            finals[alg] = s.x
        # identical tree + identical force kernel => identical physics
        assert np.allclose(finals["octree"], finals["octree-2stage"], atol=1e-13)

    def test_slower_than_concurrent_octree_on_its_gpu(self):
        """The paper's H100 result: the concurrent build beats the
        two-stage comparator (whose stage 1 serializes)."""
        from repro.bench import measure_pipeline, project_throughput

        cfg = SimulationConfig(theta=0.5, gravity=PARAMS)
        mk = lambda n: galaxy_collision(n, seed=0)
        h100 = get_device("h100")
        thr = {
            alg: project_throughput(
                measure_pipeline(mk, alg, 4000, config=cfg), h100
            )
            for alg in ("octree", "octree-2stage")
        }
        assert thr["octree"] > thr["octree-2stage"]

    def test_multipoles_have_no_atomics(self):
        s = galaxy_collision(300, seed=1)
        ctx = ExecutionContext()
        sim = Simulation(s, SimulationConfig(algorithm="octree-2stage",
                                             gravity=PARAMS), ctx=ctx)
        sim.run(1)
        assert sim.last_report.counters.steps["multipoles"].atomic_ops == 0

    def test_tree_reuse_composes(self):
        s = galaxy_collision(200, seed=2)
        cfg = SimulationConfig(algorithm="octree-2stage", gravity=PARAMS,
                               tree_reuse_steps=4)
        sim = Simulation(s, cfg)
        rep = sim.run(8)
        assert sim._tree_cache["_maintainer"].tree is not None
