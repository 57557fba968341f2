import numpy as np
import pytest

from floppynet import networks, springsim
from floppynet.errors import BoundaryRowsError, IntegrationDiverged
from floppynet.springsim import SimConfig


def fd_forces(positions, network, config, eps=1e-6):
    """Oracle: central finite differences of the stretching energy."""
    out = np.zeros_like(positions)
    for i in range(len(positions)):
        for axis in (0, 1):
            xp = positions.copy()
            xp[i, axis] += eps
            xm = positions.copy()
            xm[i, axis] -= eps
            out[i, axis] = -(springsim.stretching_energy(xp, network, config)
                             - springsim.stretching_energy(xm, network, config)
                             ) / (2 * eps)
    return out


@pytest.fixture
def stretched_spring():
    return networks.build_network([(0.0, 0.0), (1.3, 0.0)], [(0, 1, 1.0)],
                                  [True, False])


class TestRelax:
    def test_spring_at_rest_stays(self):
        net = networks.build_network([(0, 0), (1, 0)], [(0, 1, 1.0)],
                                     [True, False])
        res = springsim.relax(net, SimConfig(steps=100, noise_amplitude=0.0))
        assert np.array_equal(res.positions[0], [0, 0])
        assert res.energy == 0.0
        assert np.abs(res.positions[1] - [1, 0]).max() <= 1e-12

    def test_stretched_spring_relaxes(self, stretched_spring):
        res = springsim.relax(stretched_spring,
                              SimConfig(steps=3000, noise_amplitude=0.0))
        assert np.abs(np.linalg.norm(res.positions[1]) - 1.0) <= 1e-6
        assert res.energy <= 1e-12

    def test_energy_monotone_without_noise(self):
        net = networks.build_network(
            [(0, 0), (1.2, 0.1), (0.4, 0.9)],
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
            [True, False, False])
        res = springsim.relax(net, SimConfig(steps=2000, noise_amplitude=0.0),
                              record_energy=True)
        assert np.all(np.diff(res.energy_trace) <= 1e-15)

    def test_forces_match_finite_differences(self, lattice_4x4):
        config = SimConfig()
        rng = np.random.default_rng(0)
        x = lattice_4x4.positions + rng.normal(0, 0.08,
                                               lattice_4x4.positions.shape)
        analytic = springsim.forces(x, lattice_4x4, config)
        numeric = fd_forces(x, lattice_4x4, config)
        scale = np.abs(analytic).max()
        assert np.abs(analytic - numeric).max() / scale <= 1e-6

    def test_one_step_is_one_kernel_step(self, lattice_4x4):
        # relax and forces share one kernel: without noise a single step is
        # exactly x + dt * forces(x) on the free nodes
        rng = np.random.default_rng(1)
        x = lattice_4x4.positions + rng.normal(0, 0.05,
                                               lattice_4x4.positions.shape)
        net = lattice_4x4.with_positions(x)
        config = SimConfig(steps=1, noise_amplitude=0.0, dt=0.05,
                           stiffness=1.7, l0=0.9)
        res = springsim.relax(net, config)
        free = ~net.fixed
        expected = x + config.dt * springsim.forces(x, net, config)
        assert np.array_equal(res.positions[free], expected[free])
        assert np.array_equal(res.positions[net.fixed], x[net.fixed])

    def test_fixed_nodes_never_move(self, lattice_4x4):
        net = lattice_4x4.copy()
        net.positions[5] += 0.3        # disturb so forces are nonzero
        before = net.positions[net.fixed].copy()
        res = springsim.relax(net, SimConfig(steps=500, seed=2))
        assert np.array_equal(res.positions[net.fixed], before)

    def test_deterministic(self, lattice_4x4):
        cfg = SimConfig(steps=300, seed=11)
        a = springsim.relax(lattice_4x4, cfg)
        b = springsim.relax(lattice_4x4, cfg)
        assert np.array_equal(a.positions, b.positions)

    def test_divergence_detected(self, stretched_spring):
        with pytest.raises(IntegrationDiverged, match="dt"):
            springsim.relax(stretched_spring, SimConfig(dt=5.0, steps=2000,
                                                        noise_amplitude=0.0))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SimConfig(dt=-1.0)
        with pytest.raises(ValueError):
            SimConfig(steps=0)


class TestShearModulus:
    def test_full_lattice_resists(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4))
        net = networks.generate_triangular(spec)
        res = springsim.shear_modulus(net, SimConfig(steps=4000, dt=0.02))
        assert res.shear_modulus > 0.05
        assert not res.noise_floor_flagged

    def test_zero_edges_at_noise_floor(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4))
        net = networks.generate_triangular(spec).with_edges([])
        res = springsim.shear_modulus(net, SimConfig(steps=500))
        assert res.shear_modulus == 0.0
        assert res.noise_floor_flagged

    def test_linear_in_stiffness(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4))
        net = networks.generate_triangular(spec)
        g1 = springsim.shear_modulus(
            net, SimConfig(steps=5000, dt=0.02, stiffness=1.0)).shear_modulus
        g2 = springsim.shear_modulus(
            net, SimConfig(steps=5000, dt=0.02, stiffness=2.0)).shear_modulus
        assert g2 / g1 == pytest.approx(2.0, rel=0.05)

    def test_missing_rows(self):
        net = networks.build_network([(0, 0), (1, 0)], [(0, 1)])
        with pytest.raises(BoundaryRowsError):
            springsim.shear_modulus(net, SimConfig(steps=10))

    def test_input_not_mutated(self, lattice_4x4):
        before = lattice_4x4.positions.copy()
        fixed_before = lattice_4x4.fixed.copy()
        springsim.shear_modulus(lattice_4x4, SimConfig(steps=50))
        assert np.array_equal(lattice_4x4.positions, before)
        assert np.array_equal(lattice_4x4.fixed, fixed_before)


class TestRadialStretch:
    def test_rigid_ring_stretches_uniformly(self):
        n = 8
        angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
        pos = np.column_stack([np.cos(angles), np.sin(angles)])
        edges = [(i, (i + 1) % n) for i in range(n)]
        net = networks.build_network(pos, edges, np.ones(n, bool))
        res = springsim.radial_stretch(net, SimConfig(steps=200), stretch=0.10)
        rest = np.array([e.rest_length for e in net.edges])
        assert np.allclose(res.per_edge_extension / rest, 0.10, atol=1e-9)

    def test_dangling_chain_relaxes_free(self):
        # an interior chain hanging off one ring node rotates to accommodate
        n = 6
        angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
        pos = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]),
                         [[0.45, 0.1], [0.1, 0.2]]])
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (6, 7)]
        fixed = np.array([True] * n + [False, False])
        net = networks.build_network(pos, edges, fixed)
        res = springsim.radial_stretch(
            net, SimConfig(steps=8000, seed=1), stretch=0.10)
        chain = np.abs(res.per_edge_extension[n:])
        assert chain.max() <= 5e-3

    def test_scaled_by_boundary_diameter(self):
        n = 8
        angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
        pos = np.column_stack([np.cos(angles), np.sin(angles)]) * 3.0
        edges = [(i, (i + 1) % n) for i in range(n)]
        net = networks.build_network(pos, edges, np.ones(n, bool))
        res = springsim.radial_stretch(net, SimConfig(steps=100))
        assert np.allclose(res.scaled_extension,
                           res.per_edge_extension / 6.0)

    def test_requires_boundary(self):
        net = networks.build_network([(0, 0), (1, 0)], [(0, 1)])
        with pytest.raises(BoundaryRowsError):
            springsim.radial_stretch(net, SimConfig(steps=10))


class TestStability:
    @pytest.mark.parametrize("fixture_name", ["robot_arm", "molecule_fixture"])
    def test_no_divergence_at_stability_bound(self, fixture_name):
        net = networks.fixture(fixture_name)
        res = springsim.relax(net, SimConfig(steps=2000, dt=0.1, seed=1))
        assert np.isfinite(res.positions).all()

    def test_lattice_no_divergence_at_stability_bound(self, lattice_4x4):
        res = springsim.relax(lattice_4x4, SimConfig(steps=2000, dt=0.1, seed=1))
        assert np.isfinite(res.positions).all()


def test_radial_stretch_separates_loaded_and_slack_edges():
    # an under-constrained jammed disc shows a clearly split extension
    # distribution: slack edges rotate away, load paths stretch
    spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=1,
                                  n_disks=40, target_dof=18)
    net = networks.generate_bidisperse_packing(spec)
    res = springsim.radial_stretch(net, SimConfig(steps=12000, seed=1))
    mags = np.abs(res.scaled_extension)
    p50, p90 = np.percentile(mags, [50, 90])
    assert p90 >= 5 * max(p50, 1e-6)
