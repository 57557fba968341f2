"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as the criteria complete.
"""

import time

import numpy as np
import pytest
import scipy.stats

from floppynet import (control, experiments, loadpredict, multiscale,
                       networks, nullspace, rigidify, rigidity, springsim)
from floppynet.springsim import SimConfig

from conftest import ACCEPTANCE_LINES, fd_dof


def report(number, name, passed, detail):
    line = (f"ACCEPTANCE {number} ({name}): "
            f"{'PASS' if passed else 'FAIL'} - {detail}")
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert passed, line


def random_diluted_lattices(count=50):
    nets = []
    rng = np.random.default_rng(2024)
    while len(nets) < count:
        nx = int(rng.integers(3, 6))
        ny = int(rng.integers(3, 6))
        dilution = float(rng.uniform(0.45, 0.85))
        seed = int(rng.integers(2 ** 31))
        spec = networks.GeneratorSpec(
            kind="triangular_lattice", dimensions=(nx, ny),
            dilution_fraction=dilution, seed=seed, boundary="fixed_bottom_row")
        net = networks.generate_triangular(spec)
        if rigidity.dof(rigidity.build(net)) > 0:
            nets.append(net)
    return nets


def test_criterion_1_null_space_correctness():
    t0 = time.time()
    worst = 0.0
    cases = [networks.fixture("robot_arm"), networks.fixture("molecule_fixture"),
             networks.lattice_fixture_4x4(), networks.hinged_fixture()]
    cases += random_diluted_lattices(50)
    count_ok = True
    for net in cases:
        R = rigidity.build(net)
        expected = rigidity.dof(R)
        for basis in (nullspace.snd_basis(R, shuffle_seed=1),
                      nullspace.svd_basis(R),
                      multiscale.multiscale_basis(net, seed=1)):
            count_ok &= len(basis) == expected
            for mode in basis.modes:
                worst = max(worst, mode.max_residual(R))
    elapsed = time.time() - t0
    report(1, "null-space correctness",
           worst <= 1e-8 and count_ok and elapsed < 10,
           f"max residual {worst:.2e}, counts ok {count_ok}, {elapsed:.1f}s")


def test_criterion_2_dof_exactness():
    t0 = time.time()
    arm = networks.fixture("robot_arm")
    mol = networks.fixture("molecule_fixture")
    arm_basis = nullspace.snd_basis(rigidity.build(arm))
    mol_basis = nullspace.snd_basis(rigidity.build(mol))
    arm_ok = len(arm_basis) == 4
    finger_ok = ([m.size_s for m in arm_basis.modes[:2]] == [2, 2]
                 and {arm_basis.modes[0].node_support,
                      arm_basis.modes[1].node_support} == {(3,), (4,)})
    mol_ok = len(mol_basis) == 5
    chain = sum(set(m.node_support) <= {4, 5, 6} for m in mol_basis.modes)
    lone = sum(set(m.node_support) <= {7} for m in mol_basis.modes)
    split_ok = (chain, lone) == (3, 2)
    elapsed = time.time() - t0
    report(2, "DoF exactness",
           arm_ok and finger_ok and mol_ok and split_ok and elapsed < 1,
           f"arm modes {len(arm_basis)}, molecule modes {len(mol_basis)}, "
           f"finger sizes ok {finger_ok}, split {chain}/{lone}, {elapsed:.2f}s")


def test_criterion_3_sparsity_dominance():
    t0 = time.time()
    lattice = networks.lattice_fixture_4x4()
    part = experiments.participation_comparison(lattice, n_shuffles=100)
    inv = experiments.involvement_comparison(networks.hinged_fixture(),
                                             n_shuffles=100)
    p_ok = (part["mean_P_snd"] < part["mean_P_svd"]
            and part["p_value"] < 0.01)
    q_ok = inv["mean_Q_snd"] < inv["mean_Q_svd"]
    elapsed = time.time() - t0
    report(3, "sparsity dominance",
           p_ok and q_ok and elapsed < 30,
           f"P {part['mean_P_snd']:.1f} vs {part['mean_P_svd']:.1f} "
           f"(p={part['p_value']:.2e}), Q {inv['mean_Q_snd']:.2f} vs "
           f"{inv['mean_Q_svd']:.2f}, {elapsed:.1f}s")


def test_criterion_4_control_hierarchy():
    t0 = time.time()
    out = experiments.grasping_experiment(n_tasks=100, base_seed=0)
    means = out["mean_first_activation"]
    ordered = means[1] < means[2] < min(means[3], means[4])
    elapsed = time.time() - t0
    report(4, "control hierarchy",
           ordered and elapsed < 120,
           f"first activations {means[1]:.1f} < {means[2]:.1f} < "
           f"min({means[3]:.1f}, {means[4]:.1f}), failures {out['failures']}, "
           f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_energy_advantage():
    t0 = time.time()
    out = experiments.reaching_energy_comparison(n_pairs=250, base_seed=0)
    elapsed = time.time() - t0
    report(5, "energy advantage",
           out["pairs_completed"] >= 250 and out["win_fraction"] >= 0.70
           and elapsed < 300,
           f"{out['snd_wins']}/{out['pairs_completed']} pairs "
           f"({out['win_fraction']:.1%}), {elapsed:.0f}s")


def test_criterion_6_single_link_selection():
    t0 = time.time()
    out = experiments.single_link_comparison(n_instances=10, base_seed=0)
    elapsed = time.time() - t0
    report(6, "single-link MS selection",
           out["n_instances"] == 10 and out["wins"] >= 8 and elapsed < 180,
           f"{out['wins']}/{out['n_instances']} instances won, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_sequential_tuning():
    t0 = time.time()
    out = experiments.tuning_comparison(n_seeds=10, stop_at=92,
                                        config=SimConfig(steps=5000))
    med = out["medians"]
    window = [t for t in range(50, 71)
              if t in med["MS"] and t in med["random"]]
    ms_leads = all(med["MS"][t] > med["random"][t] for t in window)
    crossover = [t for t in range(80, 111)
                 if t in med["MS"] and t in med["random"]
                 and med["random"][t] >= med["MS"][t]]
    elapsed = time.time() - t0
    report(7, "sequential tuning",
           ms_leads and len(window) > 0 and len(crossover) > 0
           and elapsed < 900,
           f"MS leads at all {len(window)} checkpoints in 50-70, "
           f"crossover at totals {crossover[:4]}, {elapsed:.0f}s")


def test_criterion_8_load_prediction():
    t0 = time.time()
    out = experiments.load_prediction_experiment(n_networks=5, base_seed=1)
    etas = [r["best_eta"] for r in out["networks"]]
    # breakpoint structure: eta changes only at measured extension magnitudes
    spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=1,
                                  n_disks=48, target_dof=18)
    net = networks.generate_bidisperse_packing(spec)
    gmap = loadpredict.globality(net, m=100, base_seed=1)
    predicted = loadpredict.predict_loaded_edges(net, gmap, t=12)
    sim = springsim.radial_stretch(net, SimConfig(steps=20000, seed=1))
    a, b, _ = net.edge_arrays()
    ext = {(int(x), int(y)): float(s)
           for x, y, s in zip(a, b, sim.scaled_extension)}
    mags = sorted({abs(v) for v in ext.values()})
    piecewise_ok = True
    for lo, hi in zip(mags[:20], mags[1:21]):
        grid = [lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)]
        curve, _, _ = loadpredict.threshold_sweep(predicted, ext, grid)
        piecewise_ok &= curve[0][1] == curve[1][1]
    elapsed = time.time() - t0
    report(8, "load prediction",
           min(etas) >= 0.80 and piecewise_ok and elapsed < 1500,
           f"eta per network {[f'{e:.3f}' for e in etas]}, "
           f"piecewise-constant {piecewise_ok}, {elapsed:.0f}s")


def test_criterion_9_simulation_physics():
    t0 = time.time()
    spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4))
    lattice = networks.generate_triangular(spec)
    config = SimConfig()
    rng = np.random.default_rng(5)
    x = lattice.positions + rng.normal(0, 0.08, lattice.positions.shape)
    analytic = springsim.forces(x, lattice, config)
    eps = 1e-6
    fd = np.zeros_like(analytic)
    for i in range(lattice.n_nodes):
        for axis in (0, 1):
            xp, xm = x.copy(), x.copy()
            xp[i, axis] += eps
            xm[i, axis] -= eps
            fd[i, axis] = -(springsim.stretching_energy(xp, lattice, config)
                            - springsim.stretching_energy(xm, lattice, config)
                            ) / (2 * eps)
    force_err = np.abs(analytic - fd).max() / np.abs(analytic).max()

    res = springsim.relax(lattice.with_positions(x),
                          SimConfig(steps=1500, noise_amplitude=0.0),
                          record_energy=True)
    monotone = bool(np.all(np.diff(res.energy_trace) <= 1e-15))

    g1 = springsim.shear_modulus(
        lattice, SimConfig(steps=5000, dt=0.02, stiffness=1.0)).shear_modulus
    g2 = springsim.shear_modulus(
        lattice, SimConfig(steps=5000, dt=0.02, stiffness=2.0)).shear_modulus
    linear_ok = abs(g2 / g1 - 2.0) <= 0.1
    elapsed = time.time() - t0
    report(9, "simulation physics",
           force_err <= 1e-6 and monotone and linear_ok and elapsed < 30,
           f"force err {force_err:.2e}, monotone {monotone}, "
           f"G(2k)/G(k) {g2 / g1:.4f}, {elapsed:.1f}s")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    from floppynet import cli
    t0 = time.time()
    ok = True
    details = []

    def rerun_bytes(args, outname):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}_{outname}"
            code = cli.main([str(x) for x in args + ["--out", out]])
            assert code == 0
            paths.append(out.read_bytes())
        return paths[0] == paths[1]

    ok &= rerun_bytes(["--seed", 11, "generate", "--kind",
                       "triangular_lattice", "--nx", 5, "--ny", 5,
                       "--dilution", 0.6], "net.json")
    netfile = tmp_path / "a_net.json"
    ok &= rerun_bytes(["--seed", 3, "decompose", "--network", netfile,
                       "--method", "snd"], "basis.json")
    ok &= rerun_bytes(["--seed", 3, "decompose", "--network", netfile,
                       "--ensemble", 5], "ens.json")
    ok &= rerun_bytes(["--seed", 2, "simulate", "--network", netfile,
                       "--protocol", "shear_top_row", "--steps", 1000],
                      "sim.json")
    ok &= rerun_bytes(["--seed", 4, "predict", "--network", netfile,
                       "--m", 10], "pred.json")
    ok &= rerun_bytes(["--seed", 1, "render", "--network", netfile,
                       "--overlay", "none"], "net.svg")
    ok &= rerun_bytes(["--seed", 8, "rigidify", "--network", netfile,
                       "--protocol", "ms", "--stop-at", 3, "--steps", 400],
                      "curve.csv")
    details.append("cli reruns byte-identical" if ok else "cli rerun mismatch")

    net = networks.fixture("molecule_fixture")
    p1, p2 = tmp_path / "rt1.json", tmp_path / "rt2.json"
    networks.save(net, p1)
    networks.save(networks.load(p1), p2)
    rt_ok = p1.read_bytes() == p2.read_bytes()
    details.append("round trip exact" if rt_ok else "round trip mismatch")
    elapsed = time.time() - t0
    report(10, "determinism and round-trip",
           ok and rt_ok and elapsed < 10,
           f"{'; '.join(details)}, {elapsed:.1f}s")
