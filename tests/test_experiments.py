"""Light-weight checks of the experiment drivers (full sizes run in the
acceptance suite)."""

import numpy as np
import pytest

from floppynet import experiments, networks, nullspace, rigidity
from floppynet.springsim import SimConfig


def test_participation_comparison(lattice_4x4):
    out = experiments.participation_comparison(lattice_4x4, n_shuffles=30)
    assert out["mean_P_snd"] < out["mean_P_svd"]
    assert 0.0 <= out["p_value"] <= 1.0
    assert len(out["P_snd"]) == 30


def test_participation_degenerate_distribution(pinned_bar):
    # one mode, identical under every shuffle: zero-variance branch
    out = experiments.participation_comparison(pinned_bar, n_shuffles=5)
    assert out["p_value"] in (0.0, 1.0)


def test_involvement_comparison(hinged):
    out = experiments.involvement_comparison(hinged, n_shuffles=20)
    assert out["mean_Q_snd"] < out["mean_Q_svd"]


def test_grasping_small_batch():
    out = experiments.grasping_experiment(n_tasks=12, base_seed=1)
    means = out["mean_first_activation"]
    assert set(means) == {1, 2, 3, 4}
    assert out["failures"] <= 2


def test_reaching_small_batch():
    out = experiments.reaching_energy_comparison(n_pairs=12, base_seed=3)
    assert out["pairs_completed"] == 12
    assert 0.0 <= out["win_fraction"] <= 1.0
    assert len(out["energies"]) == 12


def test_reaching_reproducible():
    a = experiments.reaching_energy_comparison(n_pairs=6, base_seed=9)
    b = experiments.reaching_energy_comparison(n_pairs=6, base_seed=9)
    assert a["energies"] == b["energies"]


def test_single_link_instances_registered():
    assert len(experiments.SINGLE_LINK_INSTANCES) >= 10


def test_single_link_instances_match_scan():
    assert experiments.scan_single_link_instances() == \
        experiments.SINGLE_LINK_INSTANCES


def test_dominant_mode_predicate_known_cases():
    # seed 53: largest mode 5 of participation 11, not dominant
    net = experiments.single_link_instance(0.60, 53, "fixed_rows")
    basis = nullspace.snd_basis(rigidity.build(net))
    assert (max(m.size_s for m in basis.modes), basis.participation) == (5, 11)
    assert not experiments.dominant_mode_gated(net)
    # seed 20: a single floppy mode dominates trivially
    net = experiments.single_link_instance(0.60, 20, "fixed_rows")
    assert len(nullspace.snd_basis(rigidity.build(net))) == 1
    assert experiments.dominant_mode_gated(net)


def test_dominant_mode_predicate_rigid_network():
    spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4),
                                  boundary="fixed_rows")
    assert not experiments.dominant_mode_gated(networks.generate_triangular(spec))


def test_dominant_mode_predicate_empty_sparse_basis(near_degenerate_chain):
    assert not experiments.dominant_mode_gated(near_degenerate_chain)


def test_single_link_comparison_rejects_unregistered_count():
    n = len(experiments.SINGLE_LINK_INSTANCES) + 1
    with pytest.raises(ValueError, match="registered"):
        experiments.single_link_comparison(n_instances=n)


def test_single_link_comparison_one_instance():
    out = experiments.single_link_comparison(
        n_instances=1, config=SimConfig(steps=1500))
    assert out["n_instances"] == 1
    assert {"dg_ms", "dg_random_max", "win"} <= set(out["outcomes"][0])


def test_tuning_comparison_tiny():
    out = experiments.tuning_comparison(n_seeds=2, stop_at=5,
                                        config=SimConfig(steps=800))
    assert set(out["medians"]) == {"MS", "random"}
    for runs in out["runs"].values():
        assert all(len(r.link_sequence) == 5 for r in runs)


def test_load_prediction_single_network():
    out = experiments.load_prediction_experiment(
        n_networks=1, base_seed=1, n_disks=36, target_dof=12, m=20,
        steps=4000)
    assert 0.0 <= out["min_eta"] <= 1.0
