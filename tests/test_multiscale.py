import hashlib
import logging

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floppynet import multiscale, networks, nullspace, rigidity
from floppynet.networks import GeneratorSpec

from conftest import (NEAR_DEGENERATE_DELTAS, lattice, max_residual,
                      named_network, near_degenerate, panel)


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

    def test_short_basis_warns(self, near_degenerate_chain, caplog):
        # the SVD counts one mode, and neither the hinge layer nor SND builds it
        with caplog.at_level(logging.WARNING, logger="floppynet.multiscale"):
            basis = multiscale.multiscale_basis(near_degenerate_chain)
        assert len(basis) == 0
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == [
            "multiscale-short: the basis holds 0 modes, but the SVD counts 1"]

    def test_full_basis_does_not_warn(self, molecule, caplog):
        with caplog.at_level(logging.WARNING, logger="floppynet.multiscale"):
            multiscale.multiscale_basis(molecule)
        assert not caplog.records

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
        net = networks.Network([(0, 0), (1, 0), (0.4, 0.8)],
                               [(0, 1), (1, 2), (0, 2)],
                               [True, True, False])
        assert len(multiscale.multiscale_basis(net)) == 0

    def test_isolated_free_node_modes(self, molecule):
        basis = multiscale.multiscale_basis(molecule)
        lone = [m for m in basis.modes if set(m.node_support) == {7}]
        assert len(lone) == 2

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


# multiscale_basis(seed=0) then (seed=5), hashed by _basis_digest; recorded
# from the networkx-based hinge search that find_hinges replaced, except the
# molecule and panels, re-recorded when the side search came to read only the
# pieces of G - hinge that hold a neighbour of the hinge
PINNED_BASES = {
    "robot_arm": "9a5e742ade8fa55ad00d004a7bd817e34ce1a0a3301d149915c0b19b6e1bdaed",
    "molecule": "279436b19aab135f875c55d9aa4e868eafdfb5dc96653a730d1c6b0a493c882d",
    "lattice_4x4": "fc372c48edc68c2aad86398abdb7f42eb5829890f53ec83f33fec4898813c7d6",
    "hinged": "ceb1d882ee7cdce2d1e37940974e7930fe2d38ed11bc4cbd7f0e54726bc546fa",
    "reaching": "6795a00aa7baaff1b6c400b5ae6e7fa0ca93da9dc2243441de3bd4cc0150bca3",
    "panel0": "0fddf4f5ee1e37d62fc86c1445cceafa1aa25c2b44f2252eb92a3bbfbad8666c",
    "panel1": "b683863e4d1b8d97e88778cdf724a3b35c0359d6930113fecc4a575f9f791f1c",
    "panel2": "4568558f4f86efa49d6ac49d56678b00656cb142172952291345c0c6ce92958e",
    "panel3": "aa870ee28d4e0647b5d96cf0c2963687fd757dfa61cbecc78153211416d28763",
    "panel4": "f2a0b7512b926b1f3b850904048ea2082134f933df778d562c89ecd5e66375a9",
    "arm0": "32b9c39114ba1ff351a469c470182ba1d8ad805159b6a6b3cf243e393c9f2c3f",
    "arm1": "e6f9db3f943396eb881ad546a1fb5d4f71e14a55c722a089afb2d1febf6400f3",
    "arm2": "a36e699ce06b8d6920a1021f60ea6806e7032304b3b72e46edf21cd6de6c7ca8",
}


def _basis_digest(network):
    h = hashlib.sha256()
    for seed in (0, 5):
        basis = multiscale.multiscale_basis(network, seed=seed)
        h.update(repr((basis.method, basis.seed)).encode())
        for m in basis.modes:
            h.update(m.vector.tobytes())
            h.update(repr(([int(i) for i in m.support], m.size_s,
                           [int(u) for u in m.node_support], m.tag)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_multiscale_basis_bytes_pinned(name):
    assert _basis_digest(named_network(name)) == PINNED_BASES[name]
