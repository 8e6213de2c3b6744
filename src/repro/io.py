"""Snapshot and trajectory persistence.

The C++ artifact generates its datasets on the fly; a reusable library
also needs to save and restore body states (e.g. to checkpoint a long
collision run or to exchange initial conditions).  Snapshots are
``.npz`` archives holding the SoA arrays plus a small metadata header;
everything is exact (no precision loss) and versioned.

A snapshot may carry the full :class:`~repro.core.config.
SimulationConfig` in its header, which is what makes it a *checkpoint*:
:func:`save_checkpoint` / :func:`load_checkpoint` round-trip a running
:class:`~repro.core.Simulation` so a resumed run retraces the original
bit for bit.  For configurations whose force evaluation carries state
across steps (``tree_reuse_steps > 1``, ``tree_update="refit"``,
``ranks > 1``), the checkpoint additionally embeds the **runtime
state** — the tree maintainer's epoch positions and age, cached-list
build snapshots and MAC margins, drift-budget counters, the domain
decomposition and rebalance cadence —
which :mod:`repro.core.suspend` replays at load so a *mid-epoch* resume
is bit-exact too.  The extra payload rides in reserved ``rt*`` array
slots plus a ``"runtime"`` header key; readers of plain snapshots never
see it, so the format version is unchanged.

Paths may be real files or in-memory file objects (``io.BytesIO``) —
the service layer (:mod:`repro.serve`) suspends sessions to RAM through
the same code path.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from repro.physics.bodies import BodySystem

#: Snapshot format version (bumped on incompatible layout changes).
FORMAT_VERSION = 1


def config_to_metadata(config) -> dict[str, Any]:
    """Flatten a :class:`SimulationConfig` to JSON-serializable dicts."""
    return dataclasses.asdict(config)


def config_from_metadata(meta: dict[str, Any]):
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_metadata`.

    Unknown keys are rejected (a newer writer's field this reader does
    not understand must not be silently dropped — the resumed run would
    diverge from the original).
    """
    from repro.core.config import SimulationConfig
    from repro.physics.gravity import GravityParams

    meta = dict(meta)
    gravity = meta.pop("gravity", None)
    known = {f.name for f in dataclasses.fields(SimulationConfig)}
    unknown = set(meta) - known
    if unknown:
        raise ValueError(f"unknown config fields in snapshot: {sorted(unknown)}")
    if gravity is not None:
        meta["gravity"] = GravityParams(**gravity)
    return SimulationConfig(**meta)


# ----------------------------------------------------------------------
# Runtime-state packing (mid-epoch checkpoints)
# ----------------------------------------------------------------------
def _pack_runtime_state(state: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a runtime-state dict into (JSON metadata, array slots).

    Arrays are hoisted into ``rt<N>`` npz entries and replaced by
    ``{"__array__": slot}`` placeholders; everything else must already
    be JSON-serializable.  Slot numbering follows a deterministic
    depth-first walk, so identical states pack identically.
    """
    arrays: dict[str, np.ndarray] = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            slot = f"rt{len(arrays)}"
            arrays[slot] = obj
            return {"__array__": slot}
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        return obj

    return walk(state), arrays


def _unpack_runtime_state(meta, data) -> Any:
    """Inverse of :func:`_pack_runtime_state` (arrays copied out)."""

    def walk(obj):
        if isinstance(obj, dict):
            if set(obj) == {"__array__"}:
                return data[obj["__array__"]].copy()
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return walk(meta)


def save_snapshot(
    path,
    system: BodySystem,
    *,
    time: float = 0.0,
    metadata: dict[str, Any] | None = None,
    config=None,
    runtime_state: dict | None = None,
) -> None:
    """Write *system* to ``path`` (.npz, exact FP64).

    When *config* (a :class:`SimulationConfig`) is given, it is stored
    in the header under ``"config"`` and restored by
    :func:`load_checkpoint`.  *runtime_state* (from
    :meth:`Simulation.runtime_state`) embeds the mid-epoch cache /
    decomposition payload.  *path* may be a file object (``BytesIO``).
    """
    header = {
        "format_version": FORMAT_VERSION,
        "n": system.n,
        "dim": system.dim,
        "time": float(time),
        "metadata": metadata or {},
    }
    if config is not None:
        header["config"] = config_to_metadata(config)
    arrays: dict[str, np.ndarray] = {}
    if runtime_state is not None:
        header["runtime"], arrays = _pack_runtime_state(runtime_state)
    np.savez_compressed(
        path,
        x=system.x,
        v=system.v,
        m=system.m,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        **arrays,
    )


def load_snapshot(path) -> tuple[BodySystem, dict[str, Any]]:
    """Read a snapshot; returns ``(system, header)``.

    A checkpoint's embedded runtime-state payload comes back decoded
    under ``header["runtime"]`` (arrays rehydrated).
    """
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot version {header.get('format_version')!r}"
            )
        system = BodySystem(data["x"].copy(), data["v"].copy(), data["m"].copy())
        if "runtime" in header:
            header["runtime"] = _unpack_runtime_state(header["runtime"], data)
    if system.n != header["n"] or system.dim != header["dim"]:
        raise ValueError("snapshot header inconsistent with arrays")
    return system, header


def save_checkpoint(path, sim) -> None:
    """Checkpoint a :class:`~repro.core.Simulation` (state + config).

    Captures the simulation's replayable runtime state (cached epoch
    structures, interaction-list snapshots, drift budgets, domain
    decomposition) alongside ``(x, v, config)`` so the resume is
    bit-exact even between tree-build epochs.
    """
    save_snapshot(
        path, sim.system, time=sim.time, config=sim.config,
        runtime_state=sim.runtime_state(),
    )


def load_checkpoint(path, *, ctx=None, tree_cache: dict | None = None):
    """Restore a :class:`~repro.core.Simulation` from a checkpoint.

    The snapshot must have been written with a config (``save_snapshot
    (..., config=...)`` or :func:`save_checkpoint`).  The returned
    simulation resumes at the stored time and retraces the original run
    bit for bit: stateless configs because the acceleration is a pure
    function of the restored ``(x, v)`` and config, stateful ones
    (``tree_reuse_steps > 1``, ``tree_update="refit"``, rebuild-mode
    ``ranks > 1``) because the embedded runtime state replays the
    suspended epoch (:mod:`repro.core.suspend`).  ``tree_update="auto"``
    and maintained distributed mode resume deterministically but may
    re-derive epochs (their learned-cost / epoch state is not captured),
    which can change summation order within the theta accuracy class.

    *tree_cache* injects a pre-seeded cache dict (e.g. carrying the
    service layer's ``"_shared"`` structure cache) into the resumed
    simulation.
    """
    from repro.core.simulation import Simulation

    system, header = load_snapshot(path)
    if "config" not in header:
        raise ValueError(
            f"snapshot {path} has no config; it is a state snapshot, "
            "not a checkpoint"
        )
    config = config_from_metadata(header["config"])
    sim = Simulation(
        system, config, ctx=ctx, tree_cache=tree_cache,
        runtime_state=header.get("runtime"),
    )
    sim._integrator.steps_taken = int(round(header["time"] / config.dt))
    return sim
