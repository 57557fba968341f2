import networkx as nx
import numpy as np
import pytest

from floppynet import multiscale, networks, nullspace, rigidity


class TestFindHinges:
    def test_two_triangles_sharing_a_node(self):
        net = networks.build_network(
            [(0, 0), (1, 0), (0.5, 0.8), (2, 0), (1.5, 0.8)],
            [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4)])
        decomp = multiscale.find_hinges(net)
        assert len(decomp.components) == 2
        assert decomp.articulation_nodes == {1}
        assert decomp.component_tree[0] == {1}

    def test_fully_triangulated_lattice(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(3, 3))
        net = networks.generate_triangular(spec)
        decomp = multiscale.find_hinges(net)
        assert len(decomp.components) == 1
        assert decomp.articulation_nodes == set()

    def test_robot_arm_chain(self, robot_arm):
        # oracle: each bar of the arm is its own biconnected component and
        # the elbow and wrist are the cut nodes
        decomp = multiscale.find_hinges(robot_arm)
        assert decomp.articulation_nodes == {1, 2}
        assert sorted(c.nodes for c in decomp.components) == [
            (0, 1), (1, 2), (2, 3), (2, 4)]

    def test_components_cover_edges_once(self, hinged):
        decomp = multiscale.find_hinges(hinged)
        seen = [e for c in decomp.components for e in c.edges]
        assert sorted(seen) == sorted(hinged.edge_set())
        assert len(seen) == len(set(seen))

    def test_articulation_nodes_are_shared_nodes(self, hinged):
        decomp = multiscale.find_hinges(hinged)
        counts = {}
        for c in decomp.components:
            for u in c.nodes:
                counts[u] = counts.get(u, 0) + 1
        assert decomp.articulation_nodes == {u for u, k in counts.items() if k >= 2}


class TestMultiscaleBasis:
    def test_robot_arm_rigid_section_rotation(self, robot_arm):
        basis = multiscale.multiscale_basis(robot_arm)
        assert len(basis) == 4
        # the elbow hinge rotates wrist and fingers together rigidly
        elbow = [m for m in basis.modes
                 if m.tag == "rotational" and set(m.node_support) == {2, 3, 4}]
        assert len(elbow) == 1
        v = elbow[0].vector.reshape(-1, 2)
        centre = robot_arm.positions[1]
        for node in (2, 3, 4):
            r = robot_arm.positions[node] - centre
            assert abs(v[node] @ r) <= 1e-12        # motion stays tangential
        # all pairwise distances in the section are preserved to first order
        for a in (2, 3, 4):
            for b in (2, 3, 4):
                if a < b:
                    d = robot_arm.positions[a] - robot_arm.positions[b]
                    assert abs(d @ (v[a] - v[b])) <= 1e-12

    def test_hinged_fixture_flag_rotation(self, hinged):
        basis = multiscale.multiscale_basis(hinged)
        flag = [m for m in basis.modes
                if m.tag == "rotational" and set(m.node_support) == {9, 10, 11}]
        assert len(flag) == 1

    def test_residuals(self, hinged):
        R = rigidity.build(hinged)
        basis = multiscale.multiscale_basis(hinged)
        assert max(m.max_residual(R) for m in basis.modes) <= 1e-8

    def test_span_matches_plain_decomposition(self, robot_arm):
        R = rigidity.build(robot_arm)
        ms = multiscale.multiscale_basis(robot_arm)
        snd = nullspace.snd_basis(R)
        assert nullspace.span_residual(ms, snd) <= 1e-7

    def test_mode_count_equals_dof(self, molecule):
        R = rigidity.build(molecule)
        basis = multiscale.multiscale_basis(molecule)
        assert len(basis) == rigidity.dof(R)

    def test_component_modes_stay_in_component(self, hinged):
        decomp = multiscale.find_hinges(hinged)
        basis = multiscale.multiscale_basis(hinged)
        comp_nodes = [set(c.nodes) for c in decomp.components]
        for m in basis.modes:
            if m.tag == "component-local":
                assert any(set(m.node_support) <= nodes for nodes in comp_nodes)

    def test_rigid_network_empty_basis(self):
        net = networks.build_network([(0, 0), (1, 0), (0.4, 0.8)],
                                     [(0, 1), (1, 2), (0, 2)],
                                     [True, True, False])
        assert len(multiscale.multiscale_basis(net)) == 0

    def test_isolated_free_node_modes(self, molecule):
        basis = multiscale.multiscale_basis(molecule)
        lone = [m for m in basis.modes if set(m.node_support) == {7}]
        assert len(lone) == 2

    def test_pinned_hinge_rotation_discarded(self):
        # a shared node whose far side is tied down by a second path cannot
        # rotate; the candidate must fail the residual test and be dropped
        net = networks.build_network(
            [(0, 0), (1, 0), (0.5, 0.8), (1.5, 0.8), (2, 0)],
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)],
            [True, True, False, False, False])
        R = rigidity.build(net)
        basis = multiscale.multiscale_basis(net)
        assert len(basis) == rigidity.dof(R)
        assert max((m.max_residual(R) for m in basis.modes), default=0.0) <= 1e-8


def _reference_section(network, hinge):
    """The side search spelled out with networkx components."""
    g = multiscale._bond_graph(network)
    sides = [sorted(c) for c in nx.connected_components(
        g.subgraph([u for u in g.nodes if u != hinge]))]
    unfixed = [s for s in sides if not any(network.fixed[u] for u in s)]
    return min(unfixed or sides, key=lambda s: (len(s), s[0]))


@pytest.mark.parametrize("size,dilution,seed", [(7, 0.6, 0), (9, 0.7, 3),
                                                (11, 0.5, 5)])
def test_distal_section_matches_component_reference(size, dilution, seed):
    net = networks.generate_triangular(networks.GeneratorSpec(
        kind="triangular_lattice", dimensions=(size, size),
        dilution_fraction=dilution, seed=seed, boundary="fixed_rows"))
    g = multiscale._bond_graph(net)
    adjacency = [list(g[u]) for u in range(net.n_nodes)]
    hinges = [h for h in sorted(multiscale.find_hinges(net).articulation_nodes
                                | set(np.flatnonzero(net.fixed)))
              if g.degree(h)]
    assert hinges
    for h in hinges:
        assert (multiscale._distal_section(adjacency, h, net.fixed.tolist())
                == _reference_section(net, h))
