"""The exactness contracts over the whole legal config space.

Each example draws every enumerated field from the legality table
(:data:`repro.core.config.LEGAL_VALUES`) plus ranks in {1, 2}, keeps
the draw only if :class:`SimulationConfig` accepts it, and runs a small
seeded system through it.  Checked on every draw that supports them:

* forces are finite and within a bound of all-pairs derived from the
  opening angle (and, on the dual far field, from ``cc_mac`` and the
  local expansion order);
* ``group_size=1`` is the lockstep walk bit for bit (monopole order,
  the tile evaluator that ``eval_mode="auto"`` picks for one-body
  groups) on forces; their counters differ by design: the grouped
  form charges a list build per group plus a tile evaluation, the
  lockstep walk a per-body walk with its warp divergence;
* ``cc_mac=0`` is the grouped traversal bit for bit: a trajectory of
  a few steps ends at the same positions and velocities and charges
  every ``StepCounters`` field of every phase the same, also under
  ``tree_update="auto"``, which decides on those charges;
* a checkpoint taken at a drawn step resumes bit-exactly, except under
  ``tree_update="auto"``, whose learned costs are not checkpointed
  (DESIGN.md).

The draws are derandomized, so the suite runs the same examples every
time.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.config import LEGAL_VALUES, TREE_ALGORITHMS, SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError
from repro.io import load_checkpoint, save_checkpoint
from repro.physics.accuracy import relative_l2_error
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.workloads import plummer_sphere, uniform_cube

N = 96
GRAVITY = GravityParams(softening=0.05)


def _system(dim: int, seed: int):
    if dim == 3 and seed % 2:
        return plummer_sphere(N, seed=seed)
    return uniform_cube(N, seed=seed, dim=dim, velocity_scale=0.3,
                        equal_mass=False)


@st.composite
def cases(draw):
    kw = {name: draw(st.sampled_from(values))
          for name, values in LEGAL_VALUES.items()}
    kw.update(
        ranks=draw(st.sampled_from((1, 2))),
        theta=draw(st.sampled_from((0.3, 0.5, 0.7))),
        group_size=draw(st.sampled_from((1, 4, 16))),
    )
    try:
        cfg = SimulationConfig(gravity=GRAVITY, **kw)
    except ConfigurationError:
        assume(False)
    dim = 3 if cfg.multipole_order == 2 else draw(st.sampled_from((2, 3)))
    seed = draw(st.integers(0, 3))
    split = draw(st.integers(1, 3))
    return cfg, dim, seed, split


def _forces(cfg, dim, seed):
    return Simulation(_system(dim, seed), cfg).evaluate_forces()


def _trajectory(cfg, dim, seed, steps=3):
    """End state and per-phase counters of a *steps*-step run."""
    sim = Simulation(_system(dim, seed), cfg)
    steps = sim.run(steps).counters.steps
    return (sim.system.x, sim.system.v,
            {name: c.as_dict() for name, c in steps.items()})


def _case(dim=3, seed=1, split=2, **kw):
    """An explicit example: the table's first values, then *kw*."""
    base = {name: values[0] for name, values in LEGAL_VALUES.items()}
    return SimulationConfig(gravity=GRAVITY, **{**base, **kw}), dim, seed, split


@settings(max_examples=48, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(cases())
# Pinned: two-stage octrees at ranks > 1 on the dual far field; a 2-D
# one-body-group BVH refit across two ranks; 2-D BVH and octree runs
# under "auto", whose decisions read the charged counters (a double
# charge of the dual walk once made that BVH draw's cc_mac=0 run part
# from grouped within three steps); and a
# zeroth-order local expansion, whose first-order truncation an
# O(theta^2) bound missed.
@example(_case(algorithm="octree-2stage", traversal="dual", ranks=2))
@example(_case(algorithm="bvh", traversal="grouped", group_size=1, dim=2,
               ranks=2, tree_update="refit"))
@example(_case(algorithm="bvh", traversal="dual", group_size=4, dim=2,
               seed=3, tree_update="auto"))
@example(_case(algorithm="octree", traversal="grouped", group_size=4,
               dim=2, seed=2, tree_update="auto"))
@example(_case(algorithm="octree", traversal="dual", theta=0.3,
               group_size=1, expansion_order=0, dim=2, seed=0, split=1))
def test_contracts(case):
    cfg, dim, seed, split = case
    tree = cfg.algorithm in TREE_ALGORITHMS

    acc = _forces(cfg, dim, seed)
    system = _system(dim, seed)
    assert np.all(np.isfinite(acc))
    exact = pairwise_accelerations(system.x, system.m, GRAVITY)
    # Monopole truncation is O(theta^2); the dual's local expansion of
    # order p adds O((theta * cc_mac)^(p + 1)).
    bound = cfg.theta ** 2
    if cfg.traversal == "dual":
        bound += (cfg.theta * cfg.cc_mac) ** (cfg.expansion_order + 1)
    assert relative_l2_error(acc, exact) < bound / 4

    if (tree and cfg.traversal != "dual" and cfg.multipole_order == 1
            and cfg.eval_mode in ("auto", "tile")):
        one = _forces(cfg.with_(traversal="grouped", group_size=1), dim, seed)
        walk = _forces(cfg.with_(traversal="lockstep"), dim, seed)
        assert np.array_equal(one, walk)

    if tree and cfg.traversal != "lockstep":
        dual = _trajectory(cfg.with_(traversal="dual", cc_mac=0.0), dim, seed)
        grouped = _trajectory(cfg.with_(traversal="grouped"), dim, seed)
        assert np.array_equal(dual[0], grouped[0])
        assert np.array_equal(dual[1], grouped[1])
        assert dual[2] == grouped[2]

    if cfg.tree_update != "auto":
        total = split + 2
        ref = Simulation(_system(dim, seed), cfg)
        ref.run(total)
        sim = Simulation(_system(dim, seed), cfg)
        sim.run(split)
        buf = io.BytesIO()
        save_checkpoint(buf, sim)
        buf.seek(0)
        resumed = load_checkpoint(buf)
        resumed.run(total - split)
        assert np.array_equal(resumed.system.x, ref.system.x)
        assert np.array_equal(resumed.system.v, ref.system.v)
