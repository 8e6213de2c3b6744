"""Octree builds over coincident bodies.

Coincident bodies share a cell at every level, so the build subdivides
them down to the maximum depth, which can need more nodes than the
pool's size estimate.  The vectorized build (and the two-stage build on
top of it) grows the pool instead of raising ``AllocatorExhausted``;
the concurrent build retries with a doubled pool.  Both inputs below
used to exhaust the estimate.  With two ranks, each rank of the
two-pair input holds one coincident pair, so its tree's box has zero
extent; the pool gives such a box a positive side, or its zero-sized
cells would pass the MAC for their own bodies.  Every traversal, with
one and two ranks, must give finite forces close to the exact sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.octree.build_concurrent import build_octree_concurrent
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.layout import OctreePool
from repro.octree.traversal import canonical_structure, validate_tree
from repro.physics.accuracy import relative_l2_error
from repro.physics.bodies import BodySystem
from repro.physics.gravity import pairwise_accelerations


def _two_pairs():
    """N=4: two coincident pairs."""
    x = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3],
                  [0.7, 0.5, 0.9], [0.7, 0.5, 0.9]])
    return x, np.array([1.0, 0.5, 0.8, 1.2])


def _fourfold_cloud():
    """N=256: 64 random points, four bodies on each."""
    rng = np.random.default_rng(11)
    x = np.repeat(rng.random((64, 3)), 4, axis=0)
    return x, rng.random(256) + 0.1


INPUTS = {"two-pairs": _two_pairs, "fourfold-256": _fourfold_cloud}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_vectorized_build_outgrows_estimate(name):
    x, _ = INPUTS[name]()
    n, dim = x.shape
    pool = build_octree_vectorized(x)
    validate_tree(pool, n)
    assert pool.n_nodes > OctreePool.estimate_capacity(n, dim, pool.bits)
    assert canonical_structure(pool) == canonical_structure(
        build_octree_concurrent(x))


@pytest.mark.parametrize("ranks", [1, 2])
@pytest.mark.parametrize("traversal", ["lockstep", "grouped", "dual"])
@pytest.mark.parametrize("algorithm", ["octree", "octree-2stage"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_forces_match_all_pairs(name, algorithm, traversal, ranks):
    x, m = INPUTS[name]()
    kw = dict(algorithm=algorithm, traversal=traversal, ranks=ranks,
              group_size=8)
    cfg = SimulationConfig(**kw)
    system = BodySystem(x.copy(), np.zeros_like(x), m.copy())
    acc = Simulation(system, cfg).evaluate_forces()
    assert np.all(np.isfinite(acc))
    exact = pairwise_accelerations(x, m, cfg.gravity)
    assert relative_l2_error(acc, exact) < 1e-2
