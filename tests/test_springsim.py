import numpy as np
import pytest

from floppynet import experiments, networks, rigidify, springsim
from floppynet.errors import BoundaryRowsError, IntegrationDiverged
from floppynet.springsim import _NOISE_BLOCK, SimConfig


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


def _reference_forces(x, a, b, rest, stiffness):
    """Oracle force kernel: one ``bincount`` per endpoint and axis."""
    n = len(x)
    d = x[a] - x[b]
    lengths = np.sqrt((d * d).sum(axis=1))
    pair = (-stiffness * (lengths - rest) / lengths)[:, None] * d
    out = np.empty((n, 2))
    for axis in (0, 1):
        out[:, axis] = (np.bincount(a, weights=pair[:, axis], minlength=n)
                        - np.bincount(b, weights=pair[:, axis], minlength=n))
    return out


def _reference_relax(network, config, record_energy=False):
    """Oracle: the per-step loop, gathering and scattering the free nodes and
    drawing each step's noise on its own."""
    x = network.positions.copy()
    free = ~network.fixed
    n_free = int(free.sum())
    a, b, rest = network.edge_arrays()
    stiffness = config.stiffness
    rng = np.random.default_rng(config.seed)
    trace = np.empty(config.steps) if record_energy else None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            if len(a):
                x[free] += config.dt * _reference_forces(x, a, b, rest, stiffness)[free]
            if config.noise_amplitude > 0 and n_free:
                x[free] += rng.uniform(-config.noise_amplitude,
                                       config.noise_amplitude, (n_free, 2))
            if record_energy:
                trace[step] = springsim._spring_energy(x, a, b, rest, stiffness)
    energy = springsim._spring_energy(x, a, b, rest, stiffness)
    extension = np.linalg.norm(x[a] - x[b], axis=1) - rest
    diameter = network.diameter()
    scaled = extension / diameter if diameter > 0 else extension.copy()
    floor = (springsim.NOISE_FLOOR_FACTOR * len(a) * stiffness
             * config.noise_amplitude ** 2)
    return springsim.SimResult(x, energy, extension, scaled,
                               noise_floor_flagged=bool(energy <= floor),
                               energy_trace=trace)


def assert_same_run(res, ref):
    assert np.array_equal(res.positions, ref.positions)
    assert np.array_equal(res.per_edge_extension, ref.per_edge_extension)
    assert np.array_equal(res.scaled_extension, ref.scaled_extension)
    assert res.energy == ref.energy
    assert res.noise_floor_flagged == ref.noise_floor_flagged
    assert res.shear_modulus == ref.shear_modulus
    if ref.energy_trace is None:
        assert res.energy_trace is None
    else:
        assert np.array_equal(res.energy_trace, ref.energy_trace)


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
                           stiffness=1.7)
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

    def test_divergence_names_the_step_it_was_seen(self, stretched_spring):
        # the periodic check runs every 500 steps; the final one at the end
        with pytest.raises(IntegrationDiverged,
                           match=r"step 500 of 2000 \(dt=5.0\): 2 of 2 free"):
            springsim.relax(stretched_spring, SimConfig(dt=5.0, steps=2000,
                                                        noise_amplitude=0.0))
        with pytest.raises(IntegrationDiverged, match=r"step 300 of 300 "):
            springsim.relax(stretched_spring, SimConfig(dt=5.0, steps=300,
                                                        noise_amplitude=0.0))

    def test_max_free_force_is_the_kernel_at_the_end(self, lattice_4x4):
        net = lattice_4x4.copy()
        net.positions[5] += 0.3
        cfg = SimConfig(steps=200, seed=4)
        res = springsim.relax(net, cfg)
        free = ~net.fixed
        expected = np.linalg.norm(
            springsim.forces(res.positions, net, cfg)[free], axis=1).max()
        assert res.max_free_force == expected
        assert res.max_free_force > 0.0

    def test_max_free_force_zero_when_all_fixed(self, lattice_4x4):
        net = lattice_4x4.copy()
        net.positions[5] += 0.3
        net.fixed[:] = True
        res = springsim.relax(net, SimConfig(steps=10))
        assert res.max_free_force == 0.0

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SimConfig(dt=-1.0)
        with pytest.raises(ValueError):
            SimConfig(steps=0)


def _disturbed_lattice(seed=5):
    # dense enough that many (node, axis) bins sum three or more edges
    spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(7, 7),
                                  dilution_fraction=0.8, seed=3,
                                  boundary="fixed_rows")
    net = networks.generate_triangular(spec)
    rng = np.random.default_rng(seed)
    kick = rng.normal(0, 0.05, net.positions.shape) * (~net.fixed)[:, None]
    return net.with_positions(net.positions + kick)


class TestMatchesPerStepLoop:
    """``relax`` reproduces the per-step gather/scatter loop bit for bit."""

    @pytest.mark.parametrize("noise", [0.0, 1e-4])
    @pytest.mark.parametrize("steps", [1, _NOISE_BLOCK - 1, _NOISE_BLOCK,
                                       _NOISE_BLOCK + 1, 1000])
    def test_disturbed_lattice(self, steps, noise):
        net = _disturbed_lattice()
        cfg = SimConfig(steps=steps, noise_amplitude=noise, seed=steps)
        assert_same_run(springsim.relax(net, cfg, record_energy=True),
                        _reference_relax(net, cfg, record_energy=True))

    def test_no_edges(self):
        net = _disturbed_lattice().with_edges([])
        cfg = SimConfig(steps=300, seed=2)
        res = springsim.relax(net, cfg, record_energy=True)
        assert_same_run(res, _reference_relax(net, cfg, record_energy=True))
        assert res.max_free_force == 0.0

    def test_no_free_nodes(self):
        net = _disturbed_lattice()
        net.fixed[:] = True
        cfg = SimConfig(steps=300, seed=2)
        res = springsim.relax(net, cfg, record_energy=True)
        assert_same_run(res, _reference_relax(net, cfg, record_energy=True))
        assert np.array_equal(res.positions, net.positions)

    def test_sheared_lattice(self, monkeypatch):
        net = networks.generate_triangular(networks.GeneratorSpec(
            kind="triangular_lattice", seed=0, **experiments.TUNING_DEFAULTS))
        cfg = SimConfig(steps=600)
        res = springsim.shear_modulus(net, cfg)
        monkeypatch.setattr(springsim, "relax_all", lambda nets, c: [
            _reference_relax(n, c) for n in nets])
        assert_same_run(res, springsim.shear_modulus(net, cfg))

    def test_radial_stretch_of_a_small_packing(self, monkeypatch):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=1,
                                      n_disks=36, target_dof=12)
        net = networks.generate_bidisperse_packing(spec)
        cfg = SimConfig(steps=600, seed=3)
        res = springsim.radial_stretch(net, cfg)
        monkeypatch.setattr(springsim, "relax", _reference_relax)
        assert_same_run(res, springsim.radial_stretch(net, cfg))


def assert_same_bits(res, ref):
    """``res`` and ``ref`` agree bit for bit, signed zeros included."""
    for field in ("positions", "per_edge_extension", "scaled_extension"):
        assert getattr(res, field).tobytes() == getattr(ref, field).tobytes(), field
    assert np.float64(res.energy).tobytes() == np.float64(ref.energy).tobytes()
    assert res.max_free_force == ref.max_free_force
    assert res.noise_floor_flagged == ref.noise_floor_flagged
    assert res.shear_modulus == ref.shear_modulus
    if ref.energy_trace is None:
        assert res.energy_trace is None
    else:
        assert res.energy_trace.tobytes() == ref.energy_trace.tobytes()


def _batch_of_one_node_set():
    """Networks on one node set: different edge counts, one with no edges.

    A free node sits at x = -0.0, which a drift of +0.0 would turn into +0.0.
    """
    net = _disturbed_lattice()
    x = net.positions.copy()
    node = int(np.flatnonzero(~net.fixed)[0])
    x[node, 0] = -0.0
    net = net.with_positions(x)
    edges = [(e.a, e.b) for e in net.edges]
    return [net, net.with_edges(edges[:40]), net.with_edges([]),
            net.with_edges(edges[::3]), net]


class TestRelaxAll:
    """``relax_all`` gives each network exactly what ``relax`` gives it alone."""

    @pytest.mark.parametrize("noise", [0.0, 1e-4])
    @pytest.mark.parametrize("steps", [1, _NOISE_BLOCK + 1, 1200])
    def test_equals_relax_of_each_network(self, steps, noise):
        nets = _batch_of_one_node_set()
        cfg = SimConfig(steps=steps, noise_amplitude=noise, seed=7)
        batch = springsim.relax_all(nets, cfg, record_energy=True)
        assert len(batch) == len(nets)
        for net, res in zip(nets, batch):
            assert_same_bits(res, springsim.relax(net, cfg, record_energy=True))
        assert batch[2].max_free_force == 0.0

    def test_edgeless_member_keeps_a_signed_zero(self):
        nets = _batch_of_one_node_set()
        node = int(np.flatnonzero(~nets[2].fixed)[0])
        res = springsim.relax_all(nets, SimConfig(steps=5, noise_amplitude=0.0))
        assert np.signbit(res[2].positions[node, 0])

    def test_empty_batch(self):
        assert springsim.relax_all([], SimConfig(steps=5)) == []

    def test_mismatched_fixed_masks_raise(self, lattice_4x4):
        other = lattice_4x4.copy()
        other.fixed[int(np.flatnonzero(~other.fixed)[0])] = True
        with pytest.raises(ValueError, match="network 1 of the batch"):
            springsim.relax_all([lattice_4x4, other], SimConfig(steps=5))

    def test_mismatched_node_counts_raise(self, lattice_4x4, stretched_spring):
        with pytest.raises(ValueError, match="network 1 of the batch"):
            springsim.relax_all([lattice_4x4, stretched_spring], SimConfig(steps=5))

    def test_divergence_names_the_member(self, stretched_spring):
        at_rest = networks.build_network([(0.0, 0.0), (1.0, 0.0)], [(0, 1, 1.0)],
                                         [True, False])
        cfg = SimConfig(dt=5.0, steps=2000, noise_amplitude=0.0)
        with pytest.raises(IntegrationDiverged,
                           match=r"^network 2 of a batch of 3: positions diverged"
                                 r" at step 500 of 2000 \(dt=5.0\): 2 of 2 free"):
            springsim.relax_all([at_rest, at_rest, stretched_spring], cfg)
        assert np.isfinite(springsim.relax_all([at_rest, at_rest], cfg)[1].positions).all()


def _reference_shear_modulus(network, config, monkeypatch):
    """Oracle: ``shear_modulus`` of one network, relaxed by the per-step loop."""
    with monkeypatch.context() as m:
        m.setattr(springsim, "relax_all", lambda nets, cfg: [
            _reference_relax(net, cfg) for net in nets])
        return springsim.shear_modulus(network, config).shear_modulus


def _reference_single_link_experiment(network, candidates, config, monkeypatch):
    """Oracle: the base and each trial sheared and relaxed one at a time."""
    base = _reference_shear_modulus(network, config, monkeypatch)
    out = []
    for link in candidates:
        trial = network.with_edges(list(network.edge_set()) + [link])
        g = _reference_shear_modulus(trial, config, monkeypatch)
        out.append((tuple(link), float(g - base)))
    return out


def _reference_tune(network, protocol, seed, stop_at, config, monkeypatch):
    """Oracle: select a link, measure G, select the next, one network at a time."""
    rng = np.random.default_rng(seed)
    net = network.copy()
    remaining = rigidify.candidate_links(net)
    sequence = []
    curve = [(net.n_edges, _reference_shear_modulus(net, config, monkeypatch))]
    while remaining and len(sequence) < stop_at:
        if protocol == "MS":
            link = rigidify.ms_select_link(net, seed=int(rng.integers(2 ** 32)),
                                           candidates=remaining)
        else:
            link = remaining[int(rng.integers(len(remaining)))]
        remaining.remove(link)
        net = net.with_edges(list(net.edge_set()) + [link])
        sequence.append(link)
        curve.append((net.n_edges, _reference_shear_modulus(net, config, monkeypatch)))
    return sequence, curve


class TestLockstepCallersMatchOneAtATime:
    @pytest.mark.parametrize("seed", [0, 19])
    def test_single_link_experiment(self, seed, monkeypatch):
        net = experiments.single_link_instance(0.60, seed, "fixed_rows")
        candidates = rigidify.candidate_links(net)[:5]
        cfg = SimConfig(steps=800, seed=seed)
        assert (rigidify.single_link_experiment(net, candidates, cfg)
                == _reference_single_link_experiment(net, candidates, cfg,
                                                     monkeypatch))

    @pytest.mark.parametrize("protocol", ["MS", "random"])
    def test_tune(self, protocol, monkeypatch):
        net = networks.generate_triangular(networks.GeneratorSpec(
            kind="triangular_lattice", seed=1, **experiments.TUNING_DEFAULTS))
        cfg = SimConfig(steps=600, seed=4)
        run = rigidify.tune(net, protocol, seed=101, stop_at=4, config=cfg)
        assert (run.link_sequence, run.g_curve) == _reference_tune(
            net, protocol, 101, 4, cfg, monkeypatch)

    def test_tune_longer_than_one_chunk(self, monkeypatch):
        # the curve crosses two chunk boundaries, the last chunk part-full;
        # chunking is the same for either protocol
        net = networks.generate_triangular(networks.GeneratorSpec(
            kind="triangular_lattice", dimensions=(9, 9), dilution_fraction=0.4,
            seed=2, boundary="fixed_rows"))
        stop_at = 2 * rigidify._TUNE_CHUNK + 3
        assert len(rigidify.candidate_links(net)) > stop_at
        cfg = SimConfig(steps=60, seed=4)
        run = rigidify.tune(net, "random", seed=7, stop_at=stop_at, config=cfg)
        assert len(run.g_curve) == stop_at + 1
        assert (run.link_sequence, run.g_curve) == _reference_tune(
            net, "random", 7, stop_at, cfg, monkeypatch)


@pytest.mark.parametrize("protocol, links, curve", [
    ("MS", [(24, 31), (23, 24), (17, 23), (23, 31), (19, 25)],
     [3.986282971002104e-06, 4.0652598834077525e-06, 3.937545473388749e-06,
      4.810394398876749e-06, 5.294750281727894e-06, 6.398935243479014e-06]),
    ("random", [(34, 40), (37, 44), (5, 11), (26, 27), (4, 5)],
     [3.986282971002104e-06, 4.1195378573632786e-06, 5.097925731211798e-06,
      5.598160306904868e-06, 5.880216923002456e-06, 5.880216923002456e-06]),
])
def test_tune_reproduces_recorded_curves(protocol, links, curve):
    # values of the per-step loop in ``_reference_relax``; G at these totals
    # sits near the noise floor, so any change in a noise draw shows up here
    net = networks.generate_triangular(networks.GeneratorSpec(
        kind="triangular_lattice", seed=0, **experiments.TUNING_DEFAULTS))
    run = rigidify.tune(net, protocol, seed=100, stop_at=5)
    assert run.link_sequence == links
    assert run.g_curve == list(zip(range(24, 30), curve))


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
