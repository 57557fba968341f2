import numpy as np
import pytest

from floppynet import networks, rigidify, rigidity, springsim
from floppynet.errors import AlreadyRigidError, NoCandidateLinkError
from floppynet.springsim import SimConfig


@pytest.fixture
def diluted_5x5():
    spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(5, 5),
                                  dilution_fraction=0.6, seed=2,
                                  boundary="fixed_rows")
    return networks.generate_triangular(spec)


QUICK_SIM = SimConfig(steps=1500)


class TestCandidateLinks:
    def test_no_existing_edges(self, diluted_5x5):
        cands = rigidify.candidate_links(diluted_5x5)
        assert not set(cands) & diluted_5x5.edge_set()

    def test_lattice_pool_is_unused_lattice_bonds(self, diluted_5x5):
        cands = rigidify.candidate_links(diluted_5x5)
        full = set(networks.lattice_edges(5, 5))
        assert set(cands) | diluted_5x5.edge_set() == full

    @pytest.mark.parametrize("dims", [(5, 5), (7, 4), (3, 8)], ids=["5x5", "7x4", "3x8"])
    def test_lattice_size_read_from_geometry(self, dims):
        net = networks.generate_triangular(networks.GeneratorSpec(
            kind="triangular_lattice", dimensions=dims, dilution_fraction=0.6,
            seed=2, boundary="fixed_rows"))
        meta = {k: v for k, v in net.metadata.items() if k not in ("nx", "ny")}
        bare = networks.Network(net.positions, net.edges, net.fixed, meta)
        assert rigidify.candidate_links(bare) == rigidify.candidate_links(net)

    def test_proximity_pool_for_non_lattice(self, robot_arm):
        cands = rigidify.candidate_links(robot_arm)
        lengths = [np.linalg.norm(robot_arm.positions[a] - robot_arm.positions[b])
                   for a, b in cands]
        cutoff = 1.2 * robot_arm.edge_lengths().mean()
        assert all(l <= cutoff for l in lengths)


class TestMsSelectLink:
    def test_never_existing_or_fixed_fixed(self, diluted_5x5):
        for seed in range(6):
            link = rigidify.ms_select_link(diluted_5x5, seed=seed)
            assert link not in diluted_5x5.edge_set()
            assert not (diluted_5x5.fixed[link[0]] and diluted_5x5.fixed[link[1]])

    def test_dof_never_increases(self, diluted_5x5):
        R = rigidity.build(diluted_5x5)
        before = rigidity.dof(R)
        link = rigidify.ms_select_link(diluted_5x5, seed=0)
        grown = diluted_5x5.with_edges(list(diluted_5x5.edge_set()) + [link])
        assert rigidity.dof(rigidity.build(grown)) <= before

    def test_already_rigid(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(3, 3),
                                      boundary="fixed_rows")
        net = networks.generate_triangular(spec)
        with pytest.raises(AlreadyRigidError):
            rigidify.ms_select_link(net, seed=0)

    def test_empty_sparse_basis_is_already_rigid(self, near_degenerate_chain):
        # SND alone decides: an empty basis is rigid even where the SVD
        # rank would leave one degree of freedom
        with pytest.raises(AlreadyRigidError):
            rigidify.ms_select_link(near_degenerate_chain, seed=0)

    def test_pinned_bar_anchors_free_end(self):
        # one pinned bar plus an isolated fixed node: the only useful link
        # ties the swinging free end down
        net = networks.Network(
            [(0.0, 0.0), (0.8, 0.5), (1.6, 0.0)],
            [(0, 1)], [True, False, True],
            {"generator": "custom"})
        link = rigidify.ms_select_link(net, seed=0)
        assert 1 in link

    def test_robot_arm_targets_largest_swing(self, robot_arm):
        # the largest mode moves the distal nodes most; the chosen link
        # must attach to one of them
        link = rigidify.ms_select_link(robot_arm, seed=1)
        assert set(link) & {2, 3, 4}

    def test_no_candidates(self, robot_arm):
        with pytest.raises(NoCandidateLinkError, match="no unused candidate links"):
            rigidify.ms_select_link(robot_arm, seed=0, candidates=[])

    def test_candidates_between_fixed_nodes_only(self, molecule):
        # the backbone atoms 0-3 are fixed; every displaced atom has no link
        with pytest.raises(NoCandidateLinkError,
                           match="every displaced node has exhausted its links"):
            rigidify.ms_select_link(molecule, seed=0, candidates=[(0, 2), (1, 3)])


class TestSingleLinkExperiment:
    def test_link_along_zero_extension_direction(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4))
        net = networks.generate_triangular(spec)
        # under simple shear, same-row nodes move together: a horizontal link
        # between them carries no load
        extra = [(4, 6)]
        out = rigidify.single_link_experiment(net, extra, QUICK_SIM)
        assert abs(out[0][1]) <= 2e-3

    def test_gains_not_below_noise_floor(self, diluted_5x5):
        cands = rigidify.candidate_links(diluted_5x5)[:6]
        out = rigidify.single_link_experiment(diluted_5x5, cands, QUICK_SIM)
        for _, dg in out:
            assert dg >= -1e-3


class TestTune:
    def test_fully_connected_start_is_empty(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(3, 3),
                                      boundary="fixed_rows")
        net = networks.generate_triangular(spec)
        run = rigidify.tune(net, "random", seed=0, config=QUICK_SIM)
        assert run.link_sequence == []
        assert len(run.g_curve) == 1

    def test_curve_length_and_validity(self, diluted_5x5):
        run = rigidify.tune(diluted_5x5, "random", seed=3, stop_at=6,
                            config=QUICK_SIM)
        assert len(run.g_curve) == len(run.link_sequence) + 1
        full = set(networks.lattice_edges(5, 5))
        assert set(run.link_sequence) <= full - diluted_5x5.edge_set()
        assert len(set(run.link_sequence)) == len(run.link_sequence)

    def test_dof_monotone_under_ms(self, diluted_5x5):
        run = rigidify.tune(diluted_5x5, "MS", seed=1, stop_at=8,
                            config=QUICK_SIM)
        net = diluted_5x5
        dofs = [rigidity.dof(rigidity.build(net))]
        for link in run.link_sequence:
            net = net.with_edges(list(net.edge_set()) + [link])
            dofs.append(rigidity.dof(rigidity.build(net)))
        assert all(b <= a for a, b in zip(dofs, dofs[1:]))

    def test_deterministic(self, diluted_5x5):
        a = rigidify.tune(diluted_5x5, "MS", seed=5, stop_at=4, config=QUICK_SIM)
        b = rigidify.tune(diluted_5x5, "MS", seed=5, stop_at=4, config=QUICK_SIM)
        assert a.link_sequence == b.link_sequence
        assert a.g_curve == b.g_curve

    def test_unknown_protocol(self, diluted_5x5):
        with pytest.raises(ValueError):
            rigidify.tune(diluted_5x5, "greedy", seed=0)
