import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floppynet import networks, rigidity
from floppynet.errors import (DuplicateEdgeError, GeneratorSpecError,
                              SchemaError, SelfLoopError)

from conftest import fd_dof


def brute_force_lattice_edges(nx, ny):
    """Oracle: count node pairs at unit distance in the embedded lattice."""
    pos = networks.lattice_positions(nx, ny)
    count = 0
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if abs(np.linalg.norm(pos[i] - pos[j]) - 1.0) < 1e-9:
                count += 1
    return count


class TestTriangularLattice:
    def test_4x4_full(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4))
        net = networks.generate_triangular(spec)
        assert net.n_nodes == 16
        assert net.n_edges == 33
        assert net.n_edges == brute_force_lattice_edges(4, 4)

    def test_2x2_two_triangles(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(2, 2))
        net = networks.generate_triangular(spec)
        assert net.n_nodes == 4
        assert net.n_edges == 5

    def test_7x7_fifth_of_links(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(7, 7),
                                      dilution_fraction=0.2, seed=1)
        net = networks.generate_triangular(spec)
        total = brute_force_lattice_edges(7, 7)
        assert net.n_nodes == 49
        assert net.n_edges == round(0.2 * total)

    def test_row_spacing(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(3, 3))
        net = networks.generate_triangular(spec)
        ys = np.unique(np.round(net.positions[:, 1], 12))
        assert np.allclose(np.diff(ys), math.sqrt(3) / 2)

    def test_rest_lengths_match_geometry(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(5, 4),
                                      dilution_fraction=0.7, seed=3)
        net = networks.generate_triangular(spec)
        assert np.abs(net.edge_lengths()
                      - [e.rest_length for e in net.edges]).max() <= 1e-9

    def test_deterministic(self):
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4),
                                      dilution_fraction=0.5, seed=9)
        a = networks.generate_triangular(spec)
        b = networks.generate_triangular(spec)
        assert np.array_equal(a.positions, b.positions)
        assert a.edges == b.edges

    def test_bad_dimensions(self):
        with pytest.raises(GeneratorSpecError):
            networks.generate_triangular(
                networks.GeneratorSpec(kind="triangular_lattice", dimensions=(1, 4)))

    def test_bad_dilution(self):
        with pytest.raises(GeneratorSpecError):
            networks.GeneratorSpec(kind="triangular_lattice", dilution_fraction=1.2)

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_node_count_and_edge_validity(self, nx, ny, seed):
        spec = networks.GeneratorSpec(kind="triangular_lattice",
                                      dimensions=(nx, ny),
                                      dilution_fraction=0.8, seed=seed)
        net = networks.generate_triangular(spec)
        assert net.n_nodes == nx * ny
        assert len(net.edge_set()) == net.n_edges


class TestPacking:
    def test_target_dof(self):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=2,
                                      n_disks=40, target_dof=18)
        net = networks.generate_bidisperse_packing(spec)
        R = rigidity.build(net)
        assert rigidity.dof(R) == 18
        assert net.fixed.any()

    def test_contact_lengths_near_radius_sums(self):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=2,
                                      n_disks=40, dilution_fraction=1.0,
                                      target_dof=None)
        net = networks.generate_bidisperse_packing(spec)
        radii = np.array(json.loads(net.metadata["radii"]))
        a, b, _ = net.edge_arrays()
        sums = radii[a] + radii[b]
        ratio = net.edge_lengths() / sums
        assert ratio.min() >= 0.98
        assert ratio.max() <= 1.02

    def test_minimum_separation(self):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=3,
                                      n_disks=36, dilution_fraction=1.0,
                                      target_dof=None)
        net = networks.generate_bidisperse_packing(spec)
        radii = np.array(json.loads(net.metadata["radii"]))
        d = np.sqrt(((net.positions[:, None] - net.positions[None]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert (d / (radii[:, None] + radii[None])).min() >= 0.95

    def test_triangle_of_disks_is_rigid(self):
        # three mutually touching disks with a fixed rim are a rigid unit
        net = networks.build_network(
            [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)],
            [(0, 1), (1, 2), (0, 2)],
            [True, True, True])
        assert fd_dof(net) == 0

    def test_deterministic(self):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=5,
                                      n_disks=36, target_dof=18)
        a = networks.generate_bidisperse_packing(spec)
        b = networks.generate_bidisperse_packing(spec)
        assert np.array_equal(a.positions, b.positions)
        assert a.edges == b.edges


class TestFixtures:
    def test_robot_arm_dof(self, robot_arm):
        assert fd_dof(robot_arm) == 4

    def test_molecule_dof(self, molecule):
        assert fd_dof(molecule) == 5

    def test_molecule_without_side_chain_bonds(self, molecule):
        # dropping the bonds between side-chain atoms leaves 2*4 - 1 = 7 DoF
        kept = [e for e in molecule.edges
                if (e.a, e.b) not in {(4, 5), (5, 6)}]
        stripped = networks.Network(molecule.positions.copy(),
                                    molecule.fixed.copy(), kept, {})
        assert fd_dof(stripped) == 7

    def test_unknown_kind(self):
        with pytest.raises(GeneratorSpecError):
            networks.fixture("teapot")

    def test_lattice_fixture_4x4(self, lattice_4x4):
        assert lattice_4x4.n_nodes == 16
        assert rigidity.dof(rigidity.build(lattice_4x4)) == 4


class TestValidation:
    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            networks.build_network([(0, 0), (1, 0)], [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            networks.build_network([(0, 0), (1, 0)], [(0, 1), (1, 0)])

    def test_missing_node(self):
        with pytest.raises(SchemaError):
            networks.build_network([(0, 0), (1, 0)], [(0, 5)])

    def test_negative_rest_length(self):
        with pytest.raises(SchemaError):
            networks.build_network([(0, 0), (1, 0)], [(0, 1, -2.0)])

    def test_nan_position(self):
        # a defaulted rest length would be NaN too
        with pytest.raises(SchemaError, match="node 1"):
            networks.build_network([(0, 0), (1, math.nan), (0, 1)],
                                   [(0, 1), (1, 2)])

    @pytest.mark.parametrize("rest", [math.nan, math.inf])
    def test_non_finite_rest_length(self, rest):
        with pytest.raises(SchemaError, match="rest_length"):
            networks.build_network([(0, 0), (1, 0)], [(0, 1, rest)])

    def test_nan_in_json_file(self, tmp_path):
        # json reads the bare NaN literal as a float
        path = tmp_path / "nan.json"
        path.write_text('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0},'
                        ' {"id": 1, "x": NaN, "y": 0.0}],'
                        ' "edges": [{"a": 0, "b": 1, "rest_length": 1.0}]}')
        with pytest.raises(SchemaError, match="node 1"):
            networks.load(path)


class TestSharedEdges:
    def test_edge_arrays_are_read_only(self, lattice_4x4):
        for arr in lattice_4x4.edge_arrays():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_with_positions_shares_validated_edges(self, lattice_4x4):
        moved = lattice_4x4.with_positions(lattice_4x4.positions + 0.1)
        assert moved.edges == lattice_4x4.edges
        for new, old in zip(moved.edge_arrays(), lattice_4x4.edge_arrays()):
            assert new is old

    def test_with_positions_rejects_a_wrong_shape(self, lattice_4x4):
        with pytest.raises(SchemaError, match="shape"):
            lattice_4x4.with_positions(lattice_4x4.positions[:-1])
        with pytest.raises(SchemaError, match="shape"):
            lattice_4x4.with_positions(lattice_4x4.positions.ravel())

    def test_with_positions_rejects_nan(self, lattice_4x4):
        x = lattice_4x4.positions.copy()
        x[3, 0] = math.nan
        with pytest.raises(SchemaError, match="node 3"):
            lattice_4x4.with_positions(x)

    def test_copy_is_independent(self, lattice_4x4):
        positions = lattice_4x4.positions.copy()
        fixed = lattice_4x4.fixed.copy()
        dup = lattice_4x4.copy()
        dup.positions[0] += 1.0
        dup.fixed[:] = ~dup.fixed
        dup.metadata["extra"] = "1"
        assert np.array_equal(lattice_4x4.positions, positions)
        assert np.array_equal(lattice_4x4.fixed, fixed)
        assert "extra" not in lattice_4x4.metadata


class TestJsonRoundTrip:
    def test_round_trip_identity(self, tmp_path, lattice_4x4):
        path = tmp_path / "net.json"
        networks.save(lattice_4x4, path)
        loaded = networks.load(path)
        assert np.array_equal(loaded.positions, lattice_4x4.positions)
        assert np.array_equal(loaded.fixed, lattice_4x4.fixed)
        assert loaded.edges == sorted(lattice_4x4.edges)
        assert loaded.metadata == lattice_4x4.metadata

    def test_save_load_save_byte_identical(self, tmp_path, robot_arm):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        networks.save(robot_arm, p1)
        networks.save(networks.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_self_loop_in_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "nodes": [{"id": 0, "x": 0, "y": 0, "fixed": False},
                      {"id": 1, "x": 1, "y": 0, "fixed": False},
                      {"id": 2, "x": 2, "y": 0, "fixed": False},
                      {"id": 3, "x": 3, "y": 0, "fixed": False}],
            "edges": [{"a": 3, "b": 3}], "metadata": {}}))
        with pytest.raises(SelfLoopError):
            networks.load(path)

    def test_missing_rest_length_defaults(self, tmp_path):
        path = tmp_path / "default.json"
        path.write_text(json.dumps({
            "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "fixed": True},
                      {"id": 1, "x": 3.0, "y": 4.0, "fixed": False}],
            "edges": [{"a": 0, "b": 1}], "metadata": {}}))
        net = networks.load(path)
        assert net.edges[0].rest_length == pytest.approx(5.0, abs=1e-12)

    def test_schema_error_names_field(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({
            "nodes": [{"id": 0, "x": 0.0}], "edges": []}))
        with pytest.raises(SchemaError, match="'y'"):
            networks.load(path)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_random_lattices(self, seed):
        spec = networks.GeneratorSpec(kind="triangular_lattice",
                                      dimensions=(3, 3),
                                      dilution_fraction=0.7, seed=seed)
        net = networks.generate_triangular(spec)
        loaded = networks.from_dict(networks.to_dict(net))
        assert loaded.edges == sorted(net.edges)
        assert np.array_equal(loaded.positions, net.positions)
