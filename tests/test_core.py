"""Tests for the simulation engine, config and algorithm registry."""

import numpy as np
import pytest

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.config import SimulationConfig
from repro.core.simulation import STEP_ORDER, Simulation
from repro.errors import ConfigurationError, ForwardProgressError
from repro.machine.catalog import get_device
from repro.physics.bodies import BodySystem
from repro.physics.diagnostics import energy_report, momentum
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.stdpar.context import ExecutionContext
from repro.stdpar.progress import ForwardProgress
from repro.workloads import galaxy_collision, plummer_sphere


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = SimulationConfig()
        assert cfg.theta == 0.5

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(algorithm="fmm")

    @pytest.mark.parametrize("kw", [
        {"theta": -0.1}, {"dt": 0.0}, {"curve": "peano"}, {"simt_width": 0},
    ])
    def test_invalid_values(self, kw):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kw)

    def test_with_(self):
        cfg = SimulationConfig(theta=0.5)
        cfg2 = cfg.with_(theta=0.3)
        assert cfg.theta == 0.5 and cfg2.theta == 0.3


class TestRegistry:
    def test_registered_algorithms(self):
        assert set(ALGORITHMS) == {
            "all-pairs", "all-pairs-col", "octree", "bvh", "octree-2stage"
        }

    def test_complexity_classes(self):
        assert get_algorithm("all-pairs").complexity == "O(N^2)"
        assert get_algorithm("octree").complexity == "O(N log N)"
        assert get_algorithm("bvh").complexity == "O(N log N)"

    def test_progress_requirements(self):
        """Fig. 6: Octree and All-Pairs-Col need par (parallel forward
        progress); BVH and All-Pairs run anywhere."""
        assert get_algorithm("octree").required_progress == ForwardProgress.PARALLEL
        assert get_algorithm("all-pairs-col").required_progress == ForwardProgress.PARALLEL
        assert get_algorithm("bvh").required_progress == ForwardProgress.WEAKLY_PARALLEL
        assert get_algorithm("all-pairs").required_progress == ForwardProgress.WEAKLY_PARALLEL

    def test_supports_device_matrix(self):
        cfg = SimulationConfig()
        amd = get_device("mi300x")
        nv = get_device("h100")
        cpu = get_device("genoa")
        assert not get_algorithm("octree").supports(amd, cfg)
        assert get_algorithm("octree").supports(nv, cfg)
        assert get_algorithm("octree").supports(cpu, cfg)
        assert get_algorithm("bvh").supports(amd, cfg)

    def test_unsafe_relax_enables_col_on_amd(self):
        amd = get_device("mi300x")
        assert not get_algorithm("all-pairs-col").supports(amd, SimulationConfig())
        assert get_algorithm("all-pairs-col").supports(
            amd, SimulationConfig(unsafe_relax_policy=True)
        )
        # the octree has no such workaround (it hangs; paper V-B)
        assert not get_algorithm("octree").supports(
            amd, SimulationConfig(unsafe_relax_policy=True)
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_algorithm("pm-tree")


class TestSimulation:
    @pytest.fixture
    def system(self):
        return galaxy_collision(300, seed=2)

    @pytest.fixture
    def gravity(self):
        return GravityParams(softening=0.05)

    @pytest.mark.parametrize("alg", list(ALGORITHMS))
    def test_energy_conserved(self, system, gravity, alg):
        s = system.copy()
        e0 = energy_report(s, gravity)
        sim = Simulation(s, SimulationConfig(algorithm=alg, theta=0.3,
                                             dt=1e-3, gravity=gravity))
        sim.run(10)
        assert energy_report(s, gravity).drift_from(e0) < 1e-4

    @pytest.mark.parametrize("alg", list(ALGORITHMS))
    def test_mass_conserved(self, system, gravity, alg):
        s = system.copy()
        m0 = s.total_mass
        Simulation(s, SimulationConfig(algorithm=alg, gravity=gravity)).run(5)
        assert s.total_mass == m0

    def test_algorithms_agree_on_trajectories(self, system, gravity):
        """All four algorithms integrate to nearly the same state at a
        tight opening angle ('consistent final results across all
        systems', Section V-A)."""
        finals = {}
        for alg in ALGORITHMS:
            s = system.copy()
            Simulation(s, SimulationConfig(algorithm=alg, theta=0.1,
                                           dt=1e-3, gravity=gravity)).run(10)
            finals[alg] = s.x
        ref = finals["all-pairs"]
        scale = np.abs(ref).max()
        for alg, x in finals.items():
            assert np.abs(x - ref).max() / scale < 1e-5, alg

    def test_step_accounting_octree(self, system, gravity):
        sim = Simulation(system.copy(),
                         SimulationConfig(algorithm="octree", gravity=gravity))
        rep = sim.run(3)
        assert set(rep.counters.steps) == {
            "bounding_box", "build_tree", "multipoles", "force", "update_position"
        }
        assert all(k in STEP_ORDER for k in rep.counters.steps)
        assert rep.n_steps == 3
        per = rep.per_step()
        assert per.steps["force"].loop_iterations == pytest.approx(system.n)

    def test_step_accounting_bvh(self, system, gravity):
        sim = Simulation(system.copy(),
                         SimulationConfig(algorithm="bvh", gravity=gravity))
        rep = sim.run(2)
        assert "sort" in rep.counters.steps
        assert "multipoles" not in rep.counters.steps  # fused into build

    def test_wall_times_recorded(self, system, gravity):
        sim = Simulation(system.copy(), SimulationConfig(gravity=gravity))
        rep = sim.run(1)
        assert rep.wall_seconds > 0
        assert set(rep.seconds) == set(rep.counters.steps)

    def test_octree_on_amd_gpu_raises(self, system):
        """The first force evaluation (at construction) already refuses."""
        ctx = ExecutionContext(device=get_device("mi300x"))
        with pytest.raises(ForwardProgressError):
            Simulation(system.copy(),
                       SimulationConfig(algorithm="octree"), ctx=ctx).run(1)

    def test_bvh_on_amd_gpu_ok(self, system, gravity):
        ctx = ExecutionContext(device=get_device("mi300x"))
        sim = Simulation(system.copy(),
                         SimulationConfig(algorithm="bvh", gravity=gravity), ctx=ctx)
        sim.run(1)

    def test_evaluate_forces_matches_reference(self, system, gravity):
        sim = Simulation(system.copy(),
                         SimulationConfig(algorithm="octree", theta=0.0,
                                          gravity=gravity))
        acc = sim.evaluate_forces()
        ref = pairwise_accelerations(system.x, system.m, gravity)
        assert np.allclose(acc, ref, rtol=1e-9)

    def test_reference_backend_full_pipeline(self, gravity):
        """Octree pipeline entirely on the virtual-thread scheduler."""
        s = galaxy_collision(60, seed=3)
        ref = s.copy()
        ctx = ExecutionContext(backend="reference")
        Simulation(s, SimulationConfig(algorithm="octree", theta=0.3,
                                       dt=1e-3, gravity=gravity), ctx=ctx).run(2)
        Simulation(ref, SimulationConfig(algorithm="octree", theta=0.3,
                                         dt=1e-3, gravity=gravity)).run(2)
        assert np.allclose(s.x, ref.x, rtol=1e-10, atol=1e-13)

    def test_morton_curve_config(self, system, gravity):
        s = system.copy()
        Simulation(s, SimulationConfig(algorithm="bvh", curve="morton",
                                       gravity=gravity)).run(1)

    def test_negative_steps(self, system):
        sim = Simulation(system.copy(), SimulationConfig())
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_time_property(self, system, gravity):
        sim = Simulation(system.copy(),
                         SimulationConfig(dt=0.5, gravity=gravity))
        sim.run(4)
        assert sim.time == pytest.approx(2.0)


class TestBodyValidation:
    """Arrays mutated in place after ``BodySystem`` construction are
    re-checked when the ``Simulation`` is built, with an error that names
    the array, instead of failing a step later in the bounding box."""

    @pytest.mark.parametrize("array, name", [
        ("x", "positions"), ("v", "velocities"), ("m", "masses")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, array, name, bad):
        s = plummer_sphere(64, seed=42)
        getattr(s, array)[5] = bad
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            Simulation(s, SimulationConfig(algorithm="bvh",
                                           traversal="grouped"))

    def test_negative_mass_rejected(self):
        s = plummer_sphere(64, seed=42)
        s.m[3] = -1.0
        with pytest.raises(ValueError, match="masses must be non-negative"):
            Simulation(s, SimulationConfig(algorithm="bvh",
                                           traversal="grouped"))

    @pytest.mark.parametrize("algorithm", ["octree", "bvh"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_mass_total_must_be_finite(self, algorithm, order):
        """Each mass finite but the total overflowing turns the tree's
        node masses, hence the forces, non-finite: rejected up front.
        A total that stays finite keeps the forces finite."""
        s = plummer_sphere(300, seed=0)
        cfg = SimulationConfig(algorithm=algorithm, multipole_order=order)
        s.m[:] = 1e306
        with pytest.raises(ValueError, match="masses sum to a non-finite"):
            Simulation(s, cfg)
        s.m[:] = 1e300
        assert np.all(np.isfinite(Simulation(s, cfg).evaluate_forces()))

    @pytest.mark.parametrize("algorithm", ["octree", "bvh"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_moments_must_be_finite(self, algorithm, order):
        """A finite total mass whose moments overflow (1e300 per body at
        extent 1e10) gives non-finite forces: rejected up front.  The
        same masses at unit extent run with finite forces."""
        cfg = SimulationConfig(algorithm=algorithm, multipole_order=order,
                               traversal="grouped")
        s = plummer_sphere(300, seed=0)
        s.m[:] = 1e300
        assert np.all(np.isfinite(Simulation(s, cfg).evaluate_forces()))
        s.x *= 1e10
        with pytest.raises(ValueError, match=f"order-{order} tree moments"):
            Simulation(s, cfg)

    @pytest.mark.parametrize("algorithm", ["octree", "bvh"])
    def test_quadrupoles_bound_the_extent_at_order_two(self, algorithm):
        """At extent ~1.6e4 the monopole sums stay finite but the
        quadrupoles overflow: only order 2 rejects."""
        s = plummer_sphere(300, seed=0)
        s.m[:] = 1e300
        s.x *= 1e3
        cfg = SimulationConfig(algorithm=algorithm, traversal="grouped")
        assert np.all(np.isfinite(Simulation(s, cfg).evaluate_forces()))
        with pytest.raises(ValueError, match="order-2 tree moments"):
            Simulation(s, cfg.with_(multipole_order=2))

    def test_all_pairs_has_no_moments_to_bound(self):
        s = plummer_sphere(64, seed=0)
        s.m[:] = 1e300
        s.x *= 1e10
        Simulation(s, SimulationConfig(algorithm="all-pairs"))

    def test_bad_velocity_named_at_construction(self):
        s = plummer_sphere(8, seed=1)
        with pytest.raises(ValueError, match="velocities contains"):
            BodySystem(s.x, np.full_like(s.v, np.nan), s.m)

    def test_valid_arrays_kept(self):
        s = plummer_sphere(64, seed=42)
        x, v, m = s.x, s.v, s.m
        Simulation(s, SimulationConfig())
        assert s.x is x and s.v is v and s.m is m
