import numpy as np
import pytest

from floppynet import multiscale, networks, rigidity
from floppynet.errors import DegenerateEdgeError
from floppynet.networks import GeneratorSpec

from conftest import constraint_values, fd_dof, fd_jacobian, named_network


def _reference_build(network):
    """Oracle: the constraint Jacobian filled one edge row at a time."""
    n = network.n_coords
    rows = []
    for e in network.edges:
        d = network.positions[e.a] - network.positions[e.b]
        if np.linalg.norm(d) <= 1e-12:
            raise DegenerateEdgeError(f"edge ({e.a},{e.b}) has zero length")
        row = np.zeros(n)
        row[2 * e.a: 2 * e.a + 2] = 2.0 * d
        row[2 * e.b: 2 * e.b + 2] = -2.0 * d
        rows.append(row)
    for node in np.flatnonzero(network.fixed):
        for axis in (0, 1):
            row = np.zeros(n)
            row[2 * node + axis] = 1.0
            rows.append(row)
    if not rows:
        return np.zeros((0, n))
    R = np.array(rows)
    R /= np.linalg.norm(R, axis=1)[:, None]
    return R


def _component_network(network, comp, articulation):
    """Oracle: one hinge component as a sub-network, hinge and fixed nodes anchored."""
    nodes = list(comp.nodes)
    index = {u: k for k, u in enumerate(nodes)}
    rest = {(e.a, e.b): e.rest_length for e in network.edges}
    fixed = [bool(network.fixed[u]) or u in articulation for u in nodes]
    return networks.Network(
        network.positions[nodes],
        [(index[a], index[b], rest[(a, b)]) for a, b in comp.edges], fixed)


def _assert_same_bytes(R, ref):
    assert R.shape == ref.shape
    assert R.tobytes() == ref.tobytes()


REFERENCE_NETWORKS = ["robot_arm", "molecule", "lattice_4x4", "hinged", "reaching",
                      "panel0", "panel1", "panel2", "panel3", "panel4", "packing"]


def _reference_network(name):
    if name == "packing":
        return networks.generate_bidisperse_packing(GeneratorSpec(
            kind="bidisperse_packing", seed=1, n_disks=48, target_dof=18))
    return named_network(name)


@pytest.mark.parametrize("name", REFERENCE_NETWORKS)
class TestMatchesPerEdgeLoop:
    def test_build(self, name):
        net = _reference_network(name)
        _assert_same_bytes(rigidity.build(net), _reference_build(net))

    def test_assemble_of_each_hinge_component(self, name):
        net = _reference_network(name)
        decomp = multiscale.find_hinges(net)
        anchored = net.fixed.copy()
        anchored[list(decomp.articulation_nodes)] = True
        for comp in decomp.components:
            nodes = np.array(comp.nodes)
            R = rigidity.assemble(net.positions[nodes],
                                  np.searchsorted(nodes, comp.edges), anchored[nodes])
            _assert_same_bytes(R, _reference_build(_component_network(
                net, comp, decomp.articulation_nodes)))


class TestBuild:
    def test_pinned_bar(self, pinned_bar):
        R = rigidity.build(pinned_bar)
        assert R.shape == (3, 4)
        assert rigidity.dof(R) == 1
        # the null vector rotates the free end about the pin
        _, _, vt = np.linalg.svd(R)
        v = vt[-1]
        bar = pinned_bar.positions[1] - pinned_bar.positions[0]
        assert abs(v[2:] @ bar) <= 1e-12
        assert np.abs(v[:2]).max() <= 1e-12

    def test_free_triangle(self, free_triangle):
        R = rigidity.build(free_triangle)
        assert R.shape == (3, 6)
        assert rigidity.dof(R) == 3

    def test_triangle_two_pins_is_rigid(self):
        net = networks.Network([(0, 0), (1, 0), (0.4, 0.8)],
                               [(0, 1), (1, 2), (0, 2)],
                               [True, True, False])
        R = rigidity.build(net)
        assert R.shape == (7, 6)
        assert rigidity.dof(R) == fd_dof(net) == 0

    def test_edge_rows_have_four_nonzeros(self, robot_arm):
        # generic (non-axis-aligned) bars touch both coordinates per endpoint;
        # edge rows come first, then one single-entry row per anchored axis
        R = rigidity.build(robot_arm)
        counts = list((np.abs(R) > 0).sum(axis=1))
        n_anchor_rows = R.shape[0] - robot_arm.n_edges
        assert counts == [4] * robot_arm.n_edges + [1] * n_anchor_rows

    def test_edge_row_support_is_endpoint_columns(self, lattice_4x4):
        # axis-aligned bonds may zero one axis, but never touch other nodes
        R = rigidity.build(lattice_4x4)
        for row, e in zip(R[:lattice_4x4.n_edges], lattice_4x4.edges):
            allowed = {2 * e.a, 2 * e.a + 1, 2 * e.b, 2 * e.b + 1}
            assert set(np.flatnonzero(row)) <= allowed
            assert (np.abs(row) > 0).sum() >= 2

    @pytest.mark.parametrize("name", ["robot_arm", "molecule", "lattice_4x4",
                                      "hinged"])
    def test_rows_follow_the_documented_order(self, request, name):
        # edge k is row k; then the x and y rows of each fixed node, ascending
        net = request.getfixturevalue(name)
        R = rigidity.build(net)
        anchored = np.flatnonzero(net.fixed)
        assert R.shape == (net.n_edges + 2 * len(anchored), net.n_coords)
        for row, e in zip(R, net.edges):
            d = net.positions[e.a] - net.positions[e.b]
            expected = np.zeros(net.n_coords)
            expected[2 * e.a: 2 * e.a + 2] = d
            expected[2 * e.b: 2 * e.b + 2] = -d
            expected /= np.linalg.norm(expected)
            assert np.abs(row - expected).max() <= 1e-12
        anchor_rows = R[net.n_edges:]
        columns = [2 * node + axis for node in anchored for axis in (0, 1)]
        assert np.array_equal(anchor_rows, np.eye(net.n_coords)[columns])

    def test_rows_unit_norm(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        assert np.abs(np.linalg.norm(R, axis=1) - 1).max() <= 1e-12

    def test_matches_finite_differences(self, robot_arm):
        fd = fd_jacobian(robot_arm)
        fd /= np.linalg.norm(fd, axis=1)[:, None]
        assert np.abs(rigidity.build(robot_arm) - fd).max() <= 1e-6

    def test_normalization_preserves_null_space(self, lattice_4x4):
        # the unit-row matrix has the null space of the raw constraint Jacobian
        fd = fd_jacobian(lattice_4x4)
        _, s, vt = np.linalg.svd(fd)
        null_fd = vt[(s > 1e-9 * s[0]).sum():]
        _, s2, vt2 = np.linalg.svd(rigidity.build(lattice_4x4))
        null_unit = vt2[(s2 > 1e-9 * s2[0]).sum():]
        assert len(null_unit) == len(null_fd) == 4
        proj = null_unit @ null_fd.T @ null_fd
        assert np.abs(proj - null_unit).max() <= 1e-9

    def test_degenerate_edge(self):
        # two zero-length edges; the error names the first in edge order
        net = networks.Network([(0, 0), (1, 0), (1, 0), (1, 0)],
                               [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)])
        with pytest.raises(DegenerateEdgeError,
                           match=r"^edge \(2,3\) has zero length$"):
            rigidity.build(net)

    def test_rigid_body_motions_of_free_network(self, free_triangle):
        R = rigidity.build(free_triangle)
        tx = np.tile([1.0, 0.0], 3) / np.sqrt(3)
        ty = np.tile([0.0, 1.0], 3) / np.sqrt(3)
        assert np.abs(R @ tx).max() <= 1e-12
        assert np.abs(R @ ty).max() <= 1e-12

    def test_anchors_exclude_translations(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        tx = np.tile([1.0, 0.0], lattice_4x4.n_nodes)
        assert np.abs(R @ tx).max() > 1e-3


class TestShuffle:
    def test_deterministic(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        a = rigidity.shuffle_rows(R, seed=7)
        b = rigidity.shuffle_rows(R, seed=7)
        assert np.array_equal(a, b)

    def test_single_row_identity(self, pinned_bar):
        net = networks.Network([(0, 0), (1, 0)], [(0, 1)])
        R = rigidity.build(net)
        assert R.shape[0] == 1
        shuffled = rigidity.shuffle_rows(R, seed=0)
        assert np.array_equal(shuffled, R)

    @pytest.mark.parametrize("seed", [0, 1, 17, 12345])
    def test_dof_invariant(self, lattice_4x4, seed):
        R = rigidity.build(lattice_4x4)
        assert rigidity.dof(rigidity.shuffle_rows(R, seed)) == rigidity.dof(R)

    @pytest.mark.parametrize("seed", [0, 3, 12345])
    def test_returns_a_permutation_of_the_rows(self, lattice_4x4, seed):
        R = rigidity.build(lattice_4x4)
        shuffled = rigidity.shuffle_rows(R, seed)
        assert shuffled.shape == R.shape
        assert sorted(map(tuple, shuffled)) == sorted(map(tuple, R))
        assert not np.array_equal(shuffled, R)


class TestRank:
    def test_robot_arm_dof_4(self, robot_arm):
        assert rigidity.dof(rigidity.build(robot_arm)) == 4

    def test_molecule_dof_5(self, molecule):
        assert rigidity.dof(rigidity.build(molecule)) == 5

    def test_lattice_fixture_dof_4(self, lattice_4x4):
        assert rigidity.dof(rigidity.build(lattice_4x4)) == 4

    def test_empty_matrix(self):
        net = networks.Network([(0, 0), (1, 0)], [])
        R = rigidity.build(net)
        assert rigidity.dof(R) == 4


def test_null_perturbation_scales_quadratically(lattice_4x4):
    # moving along a null vector violates constraints only at second order
    R = rigidity.build(lattice_4x4)
    _, s, vt = np.linalg.svd(R)
    v = vt[-1].reshape(-1, 2)
    g0 = constraint_values(lattice_4x4, lattice_4x4.positions)
    residuals = {}
    for eps in (1e-3, 1e-4):
        g = constraint_values(lattice_4x4, lattice_4x4.positions + eps * v)
        residuals[eps] = np.abs(g - g0).max()
    ratio = residuals[1e-3] / residuals[1e-4]
    assert 50 <= ratio <= 200

