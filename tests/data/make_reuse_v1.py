"""Rewrite the legacy tree-reuse checkpoint fixtures ``reuse_v1_*.npz``.

``reuse_v1_{octree,bvh}.npz`` are checkpoints in the format the former
tree-reuse cache wrote: ``x``/``v``/``m``, a JSON ``header`` whose
runtime payload is ``{"reuse": {"key", "age": 2, "x_epoch": rt0}}``, and
the epoch positions ``rt0``.  That writer no longer exists, so this
script recomputes the arrays with today's code and writes them back
under the files' own header and masses:

* ``legacy_system()`` run under ``legacy_config(algorithm)`` for
  ``STEPS`` steps (suspended at age 2);
* ``x``/``v`` are the positions and velocities after those steps;
* ``rt0`` (``x_epoch``) is the tree maintainer's epoch reference
  positions ``_x_ref``, which is what the old cache stored.

``tests/test_checkpoint_midepoch.py`` builds its reference run from the
same three names, so the recipe lives here only.  The fixtures pin the
evaluator's last bits, so any round-off change in a force kernel means
rerunning this script (and saying so).  It prints ``changed ...`` or
``unchanged`` per file and rewrites only changed files.  Run from the
repository root::

    PYTHONPATH=src python tests/data/make_reuse_v1.py
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.workloads import plummer_sphere

DATA = pathlib.Path(__file__).parent
STEPS = 4


def legacy_system():
    return plummer_sphere(64, seed=42)


def legacy_config(algorithm: str) -> SimulationConfig:
    # dt=3e-2: long enough steps that reuse and rebuild differ.
    return SimulationConfig(algorithm=algorithm, tree_reuse_steps=3,
                            traversal="grouped", group_size=16, dt=3e-2)


def legacy_arrays(algorithm: str) -> dict[str, np.ndarray]:
    """``x``, ``v`` and ``rt0`` of the fixture run for *algorithm*."""
    sim = Simulation(legacy_system(), legacy_config(algorithm))
    sim.run(STEPS)
    x_ref = sim._tree_cache["_maintainer"]._x_ref
    return {"x": sim.system.x, "v": sim.system.v, "rt0": x_ref}


def main() -> None:
    for algorithm in ("octree", "bvh"):
        path = DATA / f"reuse_v1_{algorithm}.npz"
        with np.load(path) as old:
            kept = {k: old[k] for k in old.files}
        fresh = legacy_arrays(algorithm)
        changed = [k for k, a in fresh.items()
                   if a.tobytes() != kept[k].tobytes()]
        print(f"{path.name}: {'changed ' + ', '.join(changed) if changed else 'unchanged'}")
        if changed:
            np.savez_compressed(path, **{**kept, **fresh})


if __name__ == "__main__":
    main()
