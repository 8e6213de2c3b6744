"""Checkpointing: full-config snapshots and bit-exact resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.io import (
    config_from_metadata,
    config_to_metadata,
    load_checkpoint,
    load_snapshot,
    save_checkpoint,
    save_snapshot,
)
from repro.physics.bodies import BodySystem
from repro.physics.gravity import GravityParams
from repro.workloads import galaxy_collision


def _sim(n=200, **cfg_kw) -> Simulation:
    s = galaxy_collision(n, seed=11)
    return Simulation(s, SimulationConfig(**cfg_kw))


class TestConfigMetadata:
    def test_round_trip_defaults(self):
        cfg = SimulationConfig()
        assert config_from_metadata(config_to_metadata(cfg)) == cfg

    def test_round_trip_nondefault(self):
        cfg = SimulationConfig(
            algorithm="bvh", theta=0.7, dt=5e-4,
            gravity=GravityParams(G=2.0, softening=0.01),
            multipole_order=2, tree_update="refit",
            traversal="grouped", group_size=64,
            ranks=4, decomposition="weighted", rebalance_steps=3,
            interconnect="ib-hdr", ranks_per_node=2,
            inter_interconnect="roce100",
        )
        assert config_from_metadata(config_to_metadata(cfg)) == cfg

    def test_metadata_is_json_safe(self):
        import json

        meta = config_to_metadata(SimulationConfig(algorithm="octree"))
        assert config_from_metadata(json.loads(json.dumps(meta))) == \
            SimulationConfig(algorithm="octree")

    def test_unknown_field_rejected(self):
        meta = config_to_metadata(SimulationConfig())
        meta["warp_drive"] = True
        with pytest.raises(ValueError, match="warp_drive"):
            config_from_metadata(meta)


class TestSnapshotConfig:
    def test_header_carries_config(self, tmp_path):
        sim = _sim(50, algorithm="bvh", theta=0.3)
        p = tmp_path / "snap.npz"
        save_snapshot(p, sim.system, time=1.5, config=sim.config)
        _, header = load_snapshot(p)
        assert header["time"] == 1.5
        assert config_from_metadata(header["config"]) == sim.config

    def test_plain_snapshot_has_no_config(self, tmp_path):
        sim = _sim(50)
        p = tmp_path / "snap.npz"
        save_snapshot(p, sim.system)
        _, header = load_snapshot(p)
        assert "config" not in header
        with pytest.raises(ValueError, match="no config"):
            load_checkpoint(p)


class TestResume:
    @pytest.mark.parametrize("cfg_kw", [
        dict(algorithm="octree"),
        dict(algorithm="bvh", traversal="grouped", group_size=16),
    ])
    def test_save_load_resume_bit_identical(self, tmp_path, cfg_kw):
        """run 3 -> checkpoint -> both paths run 3 more -> identical."""
        sim = _sim(150, **cfg_kw)
        sim.run(3)
        p = tmp_path / "ckpt.npz"
        save_checkpoint(p, sim)

        resumed = load_checkpoint(p)
        assert resumed.config == sim.config
        assert resumed.time == pytest.approx(sim.time)

        sim.run(3)
        resumed.run(3)
        assert np.array_equal(resumed.system.x, sim.system.x)
        assert np.array_equal(resumed.system.v, sim.system.v)
        assert np.array_equal(resumed.system.m, sim.system.m)
        assert resumed.time == pytest.approx(sim.time)

    def test_distributed_resume_deterministic(self, tmp_path):
        """Two loads of one distributed checkpoint agree bitwise.

        (Since the runtime state rides in the header, rebuild-mode
        resume is in fact bit-exact against the uninterrupted run too —
        tests/test_checkpoint_midepoch.py asserts that directly.)"""
        sim = _sim(150, algorithm="bvh", ranks=2)
        sim.run(3)
        p = tmp_path / "ckpt.npz"
        save_checkpoint(p, sim)

        res_a = load_checkpoint(p)
        res_b = load_checkpoint(p)
        res_a.run(3)
        res_b.run(3)
        assert np.array_equal(res_a.system.x, res_b.system.x)
        assert np.array_equal(res_a.system.v, res_b.system.v)

        sim.run(3)
        from repro.physics.accuracy import relative_l2_error

        assert relative_l2_error(res_a.system.x, sim.system.x) < 1e-3

    def test_resume_continues_clock(self, tmp_path):
        sim = _sim(80, dt=2e-3)
        sim.run(5)
        p = tmp_path / "ckpt.npz"
        save_checkpoint(p, sim)
        resumed = load_checkpoint(p)
        assert resumed.time == pytest.approx(5 * 2e-3)
        resumed.run(2)
        assert resumed.time == pytest.approx(7 * 2e-3)
