import logging

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floppynet import multiscale, networks, nullspace, rigidity
from floppynet.networks import GeneratorSpec

from conftest import (NEAR_DEGENERATE_DELTAS, basis_digest, lattice,
                      max_residual, named_network, near_degenerate, panel,
                      span_residual)


def _networkx_hinges(network):
    """The hinge decomposition computed by networkx, sorted as find_hinges sorts."""
    g = nx.Graph()
    g.add_nodes_from(range(network.n_nodes))
    g.add_edges_from((e.a, e.b) for e in network.edges)
    comps = []
    for edge_set in nx.biconnected_component_edges(g):
        edges = tuple(sorted(tuple(sorted(e)) for e in edge_set))
        nodes = tuple(sorted({v for e in edges for v in e}))
        comps.append(multiscale.Component(nodes, edges))
    comps.sort(key=lambda c: (c.nodes[0], len(c.nodes), c.nodes))
    return multiscale.HingeDecomposition(comps, set(nx.articulation_points(g)))


def _graph(n_nodes, edges):
    """A network over ``n_nodes`` nodes on a line, every rest length 1."""
    positions = [(float(u), 0.0) for u in range(n_nodes)]
    return networks.Network(positions, [(a, b, 1.0) for a, b in edges])


def _hinged_with_lone_node():
    """Triangles 0-1-2 and 1-3-4 sharing hinge 1, a square 3-5-6-7 hanging
    off hinge 3, node 0 fixed, and node 8 free and bonded to nothing."""
    return networks.Network(
        [(0, 0), (1, 0), (0.5, 0.8), (2, 0), (1.5, 0.8), (3, 0), (3, 1), (2, 1),
         (4, -1)],
        [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5), (5, 6),
         (6, 7), (3, 7)],
        [True] + [False] * 8)


def _random_lattices():
    rng = np.random.default_rng(2024)
    return [lattice(int(rng.integers(4, 12)), float(rng.uniform(0.3, 0.8)),
                     int(rng.integers(2 ** 31))) for _ in range(30)]


class TestFindHingesMatchesNetworkx:
    @pytest.mark.parametrize("name", ["robot_arm", "molecule", "lattice_4x4",
                                      "hinged", "reaching"])
    def test_fixtures(self, name):
        net = named_network(name)
        assert multiscale.find_hinges(net) == _networkx_hinges(net)

    @pytest.mark.parametrize("k", range(5))
    def test_panel_lattices(self, k):
        net = panel(k)
        assert multiscale.find_hinges(net) == _networkx_hinges(net)

    def test_random_lattices(self):
        nets = _random_lattices()
        assert any(multiscale.find_hinges(n).articulation_nodes for n in nets)
        for net in nets:
            assert multiscale.find_hinges(net) == _networkx_hinges(net)

    def test_packing(self):
        net = networks.generate_bidisperse_packing(GeneratorSpec(
            kind="bidisperse_packing", seed=1, n_disks=48, target_dof=18))
        assert multiscale.find_hinges(net) == _networkx_hinges(net)

    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)), max_size=60))))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, graph):
        n, pairs = graph
        edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
        net = _graph(n, edges)
        assert multiscale.find_hinges(net) == _networkx_hinges(net)

    @pytest.mark.parametrize("n,edges,articulation", [
        (3, [], set()),                                            # no edges
        (2, [(0, 1)], set()),                                      # one edge
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], {0}),                # star
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], set()),      # cycle
        (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], {2}),  # bowtie
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], set()),  # two triangles
        (7, [(1, 2), (2, 3), (3, 1), (3, 4), (5, 6)], {3}),        # isolated node 0
    ])
    def test_named_graphs(self, n, edges, articulation):
        net = _graph(n, edges)
        decomp = multiscale.find_hinges(net)
        assert decomp == _networkx_hinges(net)
        assert decomp.articulation_nodes == articulation

    def test_long_path_needs_no_recursion(self):
        n = 5000
        net = _graph(n, [(u, u + 1) for u in range(n - 1)])
        decomp = multiscale.find_hinges(net)
        assert decomp.articulation_nodes == set(range(1, n - 1))
        assert [c.edges for c in decomp.components] == [((u, u + 1),)
                                                        for u in range(n - 1)]
        assert decomp == _networkx_hinges(net)


class TestFindHinges:
    def test_two_triangles_sharing_a_node(self):
        net = networks.Network(
            [(0, 0), (1, 0), (0.5, 0.8), (2, 0), (1.5, 0.8)],
            [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4)])
        decomp = multiscale.find_hinges(net)
        assert len(decomp.components) == 2
        assert decomp.articulation_nodes == {1}

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

    def test_residuals(self):
        nets = [named_network(name) for name in sorted(PINNED_BASES)]
        nets += [near_degenerate(delta) for delta in NEAR_DEGENERATE_DELTAS]
        for net in nets:
            basis = multiscale.multiscale_basis(net)
            assert max_residual(rigidity.build(net), basis) <= 1e-8

    def test_chain_holds_the_snd_mode_count(self, near_degenerate_chain, caplog):
        # the SVD counts one mode, SND builds none; the count is SND's, so
        # the basis is complete at 0 modes and nothing is logged as short
        R = rigidity.build(near_degenerate_chain)
        assert rigidity.dof(R) == 1
        with caplog.at_level(logging.WARNING, logger="floppynet.multiscale"):
            basis = multiscale.multiscale_basis(near_degenerate_chain)
        assert len(basis) == len(nullspace.snd_basis(R)) == 0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_full_basis_does_not_warn(self, molecule, caplog):
        with caplog.at_level(logging.WARNING, logger="floppynet.multiscale"):
            multiscale.multiscale_basis(molecule)
        assert not caplog.records

    def test_span_matches_plain_decomposition(self, robot_arm):
        R = rigidity.build(robot_arm)
        ms = multiscale.multiscale_basis(robot_arm)
        snd = nullspace.snd_basis(R)
        assert span_residual(ms, snd) <= 1e-7

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
        net = networks.Network([(0, 0), (1, 0), (0.4, 0.8)],
                               [(0, 1), (1, 2), (0, 2)],
                               [True, True, False])
        assert len(multiscale.multiscale_basis(net)) == 0

    def test_isolated_free_node_modes(self, molecule):
        # the node lies in no constraint row, so the plain elimination's
        # fill gives its two unit coordinate modes
        for net, node in ((molecule, 7), (_hinged_with_lone_node(), 8)):
            basis = multiscale.multiscale_basis(net)
            lone = [m for m in basis.modes if set(m.node_support) == {node}]
            assert [(m.support, m.vector[m.support[0]], m.tag) for m in lone] == [
                ((2 * node,), 1.0, "component-local"),
                ((2 * node + 1,), 1.0, "component-local")]
            assert len(basis) == len(nullspace.snd_basis(rigidity.build(net)))

    def test_pinned_hinge_rotation_discarded(self):
        # each fixed node's only side holds the other fixed node, so neither
        # may rotate it: no side is chosen and no rotation is offered
        net = networks.Network(
            [(0, 0), (1, 0), (0.5, 0.8), (1.5, 0.8), (2, 0)],
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)],
            [True, True, False, False, False])
        adjacency = multiscale._neighbours(net)
        for hinge in (0, 1):
            assert multiscale._distal_section(adjacency, hinge,
                                              net.fixed.tolist()) is None
        R = rigidity.build(net)
        basis = multiscale.multiscale_basis(net)
        assert len(basis) == rigidity.dof(R)
        assert max_residual(R, basis) <= 1e-8


def _reference_section(network, hinge):
    """The side search spelled out with networkx components: the pieces of
    G - hinge that hold a neighbour of the hinge."""
    g = nx.Graph()
    g.add_nodes_from(range(network.n_nodes))
    g.add_edges_from((e.a, e.b) for e in network.edges)
    sides = [sorted(c) for c in nx.connected_components(
        g.subgraph([u for u in g.nodes if u != hinge])) if c & set(g[hinge])]
    unfixed = [s for s in sides if not any(network.fixed[u] for u in s)]
    return min(unfixed, key=lambda s: (len(s), s[0])) if unfixed else None


@pytest.mark.parametrize("size,dilution,seed", [(7, 0.6, 0), (9, 0.7, 3),
                                                (11, 0.5, 5)])
def test_distal_section_matches_component_reference(size, dilution, seed):
    net = lattice(size, dilution, seed)
    adjacency = [[] for _ in range(net.n_nodes)]
    for e in net.edges:
        adjacency[e.a].append(e.b)
        adjacency[e.b].append(e.a)
    hinges = sorted(multiscale.find_hinges(net).articulation_nodes
                    | set(np.flatnonzero(net.fixed)))
    assert hinges
    for h in hinges:
        assert (multiscale._distal_section(adjacency, h, net.fixed.tolist())
                == _reference_section(net, h))


# multiscale_basis(seed=0) then (seed=5), hashed by basis_digest; recorded
# from the networkx-based hinge search that find_hinges replaced, except the
# molecule and panels, re-recorded when the side search came to read only the
# pieces of G - hinge that hold a neighbour of the hinge, and the panels and
# reaching network, re-recorded when component modes stopped being finalised
# a second time after their lift (entries moved by at most 1.1e-16, and
# zeros kept the sign SND gave them)
PINNED_BASES = {
    "robot_arm": "9a5e742ade8fa55ad00d004a7bd817e34ce1a0a3301d149915c0b19b6e1bdaed",
    "molecule": "279436b19aab135f875c55d9aa4e868eafdfb5dc96653a730d1c6b0a493c882d",
    "lattice_4x4": "fc372c48edc68c2aad86398abdb7f42eb5829890f53ec83f33fec4898813c7d6",
    "hinged": "ceb1d882ee7cdce2d1e37940974e7930fe2d38ed11bc4cbd7f0e54726bc546fa",
    "reaching": "82cc063a8100904cbc8908610d1c29a170e583bbc568165a7ac75652eed4f3e4",
    "panel0": "0e57e69898472a32a402167b524560f2d3f8dadf29314c50538abf017128a7fd",
    "panel1": "8c4f459724148f14b6be734ce84e543258e6b1d5968c112b0898263b8b9c84de",
    "panel2": "8d5033cb471411db1080d66a5ebf267f7292a2e2412b1dd4e4cf6a91690ef0bb",
    "panel3": "d9d5cb5d8548383bebed56368de63bb5138996fd8cc7c438336ab75eb5499275",
    "panel4": "0afe767e60fcc4809476ab0a2a808c5f3c1d0b5a47d2051e906cefc21e78c5e4",
    "arm0": "32b9c39114ba1ff351a469c470182ba1d8ad805159b6a6b3cf243e393c9f2c3f",
    "arm1": "e6f9db3f943396eb881ad546a1fb5d4f71e14a55c722a089afb2d1febf6400f3",
    "arm2": "a36e699ce06b8d6920a1021f60ea6806e7032304b3b72e46edf21cd6de6c7ca8",
}


@pytest.mark.pins
@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_multiscale_basis_bytes_pinned(name):
    net = named_network(name)
    digest = basis_digest(multiscale.multiscale_basis(net, seed=seed)
                          for seed in (0, 5))
    assert digest == PINNED_BASES[name]


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_mode_count_equals_snd_count(name):
    net = named_network(name)
    R = rigidity.build(net)
    for seed in (0, 5):
        assert (len(multiscale.multiscale_basis(net, seed))
                == len(nullspace.snd_basis(R, seed)))


def _lifted_component_modes(network, seed):
    """Bytes of every component's SND mode, lifted to the whole network, as
    ``multiscale_basis`` anchors and seeds each component."""
    decomp = multiscale.find_hinges(network)
    anchored = network.fixed.copy()
    anchored[list(decomp.articulation_nodes)] = True
    lifted = set()
    for ci, comp in enumerate(decomp.components):
        nodes = np.array(comp.nodes)
        R = rigidity.assemble(network.positions[nodes],
                              np.searchsorted(nodes, comp.edges), anchored[nodes])
        for v in nullspace.snd_basis(R, seed + ci).vectors():
            w = np.zeros(network.n_coords)
            w[(2 * nodes[:, None] + np.arange(2)).ravel()] = v
            lifted.add(w.tobytes())
    return lifted


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_component_local_modes_are_snd_modes_bit_for_bit(name):
    # a component-local mode is a component's SND mode with zeros around it,
    # or a mode of the plain elimination's fill; neither is finalised again
    net = named_network(name)
    for seed in (0, 5):
        lifted = _lifted_component_modes(net, seed)
        fill = {nullspace.make_mode(row).vector.tobytes()
                for row in nullspace.eliminate(rigidity.build(net), seed)}
        for m in multiscale.multiscale_basis(net, seed).modes:
            if m.tag == "component-local":
                assert m.vector.tobytes() in lifted | fill
