"""Mid-epoch checkpoint round-trips: bit-exact resume of cached state.

The plain checkpoint tests (test_checkpoint.py) cover configurations
whose force evaluation is a pure function of ``(x, v, config)``.  These
cover the stateful ones: a suspend that lands *between* tree-build
epochs (``tree_reuse_steps > 1``), between refit rebuilds
(``tree_update="refit"`` — cached interaction lists, drift budgets,
adaptive MAC margins), or between distributed rebalances (``ranks > 1``
— domain splits and cadence phase).  The resumed trajectory must be
bitwise the uninterrupted one, which only holds if the embedded runtime
state replays every cache exactly (repro.core.suspend).
"""

from __future__ import annotations

import importlib.util
import io
import pathlib

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.io import load_checkpoint, load_snapshot, save_checkpoint
from repro.stdpar.context import ExecutionContext
from repro.workloads import galaxy_collision, plummer_sphere

N = 128
TOTAL = 11
SPLIT = 5  # deliberately not a multiple of any epoch length below
DATA = pathlib.Path(__file__).parent / "data"


def _load_legacy_recipe():
    """The fixture generator, whose config/system/steps the test reuses."""
    path = DATA / "make_reuse_v1.py"
    spec = importlib.util.spec_from_file_location("make_reuse_v1", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


LEGACY = _load_legacy_recipe()


def _system(n=N):
    return plummer_sphere(n, seed=42)


def _ctx(backend):
    return None if backend is None else ExecutionContext(backend=backend)


def _round_trip(tmp_path, cfg_kw, *, n=N, total=TOTAL, split=SPLIT,
                make=_system, backend=None):
    """Uninterrupted run vs run->suspend->resume->run; returns both."""
    ref = Simulation(make(n), SimulationConfig(**cfg_kw), ctx=_ctx(backend))
    ref.run(total)

    sim = Simulation(make(n), SimulationConfig(**cfg_kw), ctx=_ctx(backend))
    sim.run(split)
    path = tmp_path / "mid.npz"
    save_checkpoint(path, sim)
    resumed = load_checkpoint(path, ctx=_ctx(backend))
    resumed.run(total - split)
    return ref, resumed


def _assert_bitwise(ref, resumed):
    assert np.array_equal(resumed.system.x, ref.system.x)
    assert np.array_equal(resumed.system.v, ref.system.v)


class TestTreeReuseMidEpoch:
    """Suspend with a reused structure mid-lifetime (age in [1, k])."""

    @pytest.mark.parametrize("cfg_kw", [
        dict(algorithm="octree", tree_reuse_steps=3),
        dict(algorithm="bvh", tree_reuse_steps=3),
        dict(algorithm="octree", tree_reuse_steps=4,
             traversal="grouped", group_size=16),
        dict(algorithm="bvh", tree_reuse_steps=4,
             traversal="grouped", group_size=16),
        dict(algorithm="bvh", tree_reuse_steps=3,
             traversal="dual", group_size=16),
        dict(algorithm="octree-2stage", tree_reuse_steps=3),
        dict(algorithm="octree-2stage", tree_reuse_steps=4,
             traversal="grouped", group_size=16),
        dict(algorithm="octree", tree_reuse_steps=3,
             traversal="dual", group_size=16),
    ])
    def test_bit_exact(self, tmp_path, cfg_kw):
        ref, resumed = self._run(tmp_path, cfg_kw)
        _assert_bitwise(ref, resumed)

    def _run(self, tmp_path, cfg_kw):
        return _round_trip(tmp_path, cfg_kw)

    def test_every_split_point(self, tmp_path):
        """The resume is exact wherever the suspend lands in the epoch."""
        cfg_kw = dict(algorithm="octree", tree_reuse_steps=3,
                      traversal="grouped", group_size=16)
        ref = Simulation(_system(), SimulationConfig(**cfg_kw))
        ref.run(7)
        for split in (1, 2, 3, 4, 5, 6):
            sim = Simulation(_system(), SimulationConfig(**cfg_kw))
            sim.run(split)
            path = tmp_path / f"s{split}.npz"
            save_checkpoint(path, sim)
            resumed = load_checkpoint(path)
            resumed.run(7 - split)
            assert np.array_equal(resumed.system.x, ref.system.x), split

    def test_state_rides_in_header(self, tmp_path):
        sim = Simulation(_system(), SimulationConfig(
            algorithm="bvh", tree_reuse_steps=3))
        sim.run(SPLIT)
        path = tmp_path / "mid.npz"
        save_checkpoint(path, sim)
        _, header = load_snapshot(path)
        assert "maint" in header["runtime"]
        assert header["runtime"]["maint"]["age"] >= 1

    @pytest.mark.parametrize("algorithm", ["octree", "bvh"])
    def test_legacy_reuse_payload_resumes(self, algorithm):
        """Checkpoints that carry tree reuse's former ``"reuse"`` payload
        (epoch positions ``x_epoch`` and age) still resume bit-exactly.

        The fixtures hold the state after ``LEGACY.STEPS`` steps of
        ``LEGACY.legacy_system()`` under ``LEGACY.legacy_config``
        (``tree_reuse_steps=3``, suspended at age 2).  They pin the
        evaluator's last bits; ``tests/data/make_reuse_v1.py``
        regenerates them.
        """
        path = DATA / f"reuse_v1_{algorithm}.npz"
        _, header = load_snapshot(path)
        assert header["runtime"]["reuse"]["age"] == 2
        cfg = LEGACY.legacy_config(algorithm)
        ref = Simulation(LEGACY.legacy_system(), cfg)
        ref.run(LEGACY.STEPS + 6)
        resumed = load_checkpoint(path)
        assert resumed.config == cfg
        resumed.run(6)
        _assert_bitwise(ref, resumed)

    def test_stateless_config_embeds_nothing(self, tmp_path):
        sim = Simulation(_system(), SimulationConfig(algorithm="octree"))
        sim.run(3)
        path = tmp_path / "plain.npz"
        save_checkpoint(path, sim)
        _, header = load_snapshot(path)
        assert "runtime" not in header


class TestRefitMidEpoch:
    """Suspend between refit rebuilds: lists + drift budget state."""

    @pytest.mark.parametrize("cfg_kw", [
        dict(algorithm="bvh", tree_update="refit",
             traversal="grouped", group_size=16),
        dict(algorithm="octree", tree_update="refit",
             traversal="grouped", group_size=16),
        dict(algorithm="bvh", tree_update="refit",
             traversal="dual", group_size=16),
        dict(algorithm="octree", tree_update="refit",
             traversal="dual", group_size=16),
        dict(algorithm="octree-2stage", tree_update="refit",
             traversal="grouped", group_size=16),
        dict(algorithm="octree-2stage", tree_update="refit",
             traversal="dual", group_size=16),
        # ranks=2: the distributed epoch (membership, per-rank trees,
        # LET plans) must survive the suspend, or the resume rebuilds.
        dict(algorithm="bvh", tree_update="refit", ranks=2,
             traversal="grouped", group_size=16),
        dict(algorithm="octree", tree_update="refit", ranks=2,
             traversal="grouped", group_size=16),
        dict(algorithm="bvh", tree_update="refit", ranks=2,
             traversal="dual", group_size=16),
    ])
    def test_bit_exact(self, tmp_path, cfg_kw):
        ref, resumed = _round_trip(tmp_path, cfg_kw)
        _assert_bitwise(ref, resumed)

    def test_bit_exact_reference_backend(self, tmp_path):
        """Replay refreshes moments through the algorithm's own hook —
        the reference backend's concurrent multipoles, here."""
        ref, resumed = _round_trip(
            tmp_path, dict(algorithm="octree", tree_update="refit",
                           traversal="grouped", group_size=16),
            n=64, backend="reference")
        _assert_bitwise(ref, resumed)

    def test_counters_and_budget_survive(self, tmp_path):
        cfg_kw = dict(algorithm="bvh", tree_update="refit",
                      traversal="grouped", group_size=16)
        sim = Simulation(_system(), SimulationConfig(**cfg_kw))
        sim.run(SPLIT)
        maint = sim._tree_cache["_maintainer"]
        path = tmp_path / "mid.npz"
        save_checkpoint(path, sim)
        resumed = load_checkpoint(path)
        r_maint = resumed._tree_cache["_maintainer"]
        # The replay evaluation adds exactly one maintenance action.
        assert (r_maint.counts["rebuild"] + r_maint.counts["refit"]
                == maint.counts["rebuild"] + maint.counts["refit"] + 1)
        assert r_maint._budget_abs == maint._budget_abs
        assert np.array_equal(r_maint._x_ref, maint._x_ref)


class TestDistributedMidCadence:
    """ranks=2 rebuild mode: decomposition + rebalance phase survive."""

    @pytest.mark.parametrize("cfg_kw", [
        dict(algorithm="octree", ranks=2, rebalance_steps=4),
        dict(algorithm="bvh", ranks=2, rebalance_steps=4,
             traversal="grouped", group_size=16),
        dict(algorithm="bvh", ranks=2, rebalance_steps=3,
             decomposition="weighted"),
    ])
    def test_bit_exact(self, tmp_path, cfg_kw):
        ref, resumed = _round_trip(tmp_path, cfg_kw,
                                   make=lambda n: galaxy_collision(n, seed=7))
        _assert_bitwise(ref, resumed)

    def test_cadence_phase_preserved(self, tmp_path):
        cfg_kw = dict(algorithm="octree", ranks=2, rebalance_steps=4)
        sim = Simulation(galaxy_collision(N, seed=7),
                         SimulationConfig(**cfg_kw))
        sim.run(SPLIT)
        calls = sim.distributed.balancer._calls
        path = tmp_path / "mid.npz"
        save_checkpoint(path, sim)
        resumed = load_checkpoint(path)
        # The construction-time replay evaluation must not tick the
        # cadence; the counter matches the suspended run exactly.
        assert resumed.distributed.balancer._calls == calls


class TestInMemoryCheckpoint:
    """The service layer suspends sessions to RAM (BytesIO npz)."""

    def test_bytesio_round_trip_bit_exact(self):
        cfg_kw = dict(algorithm="bvh", tree_reuse_steps=3,
                      traversal="grouped", group_size=16)
        ref = Simulation(_system(), SimulationConfig(**cfg_kw))
        ref.run(TOTAL)

        sim = Simulation(_system(), SimulationConfig(**cfg_kw))
        sim.run(SPLIT)
        buf = io.BytesIO()
        save_checkpoint(buf, sim)
        buf.seek(0)
        resumed = load_checkpoint(buf)
        resumed.run(TOTAL - SPLIT)
        _assert_bitwise(ref, resumed)
