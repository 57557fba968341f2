import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floppynet import networks, rigidity
from floppynet.errors import (DuplicateEdgeError, GeneratorSpecError,
                              PackingNotConverged, SchemaError, SelfLoopError)

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
    @pytest.mark.parametrize("boundary", ["fixed_rows", "fixed_bottom_row"])
    def test_lattice_boundary_rejected(self, boundary):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", boundary=boundary)
        with pytest.raises(GeneratorSpecError, match=boundary):
            networks.generate_bidisperse_packing(spec)

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
        net = networks.Network(
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

    def test_unreachable_target_fails_before_redrawing(self):
        # the full contact network of this seed already has DoF 19, and
        # removing edges never lowers the DoF
        spec = networks.GeneratorSpec(kind="bidisperse_packing",
                                      seed=641987627, n_disks=48,
                                      target_dof=18)
        with pytest.raises(PackingNotConverged,
                           match="seed 641987627: the full contact network "
                                 "already has DoF 19, above target DoF 18"):
            networks.generate_bidisperse_packing(spec)


def _reference_relax_disks(x, radii, container_radius, sweeps, step=0.15):
    """Oracle: the dense sweep over ``(n, n, 2)`` differences, summing every
    partner's term, zeros included, over the partner axis."""
    sum_r = radii[:, None] + radii[None, :]
    for _ in range(sweeps):
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        overlap = sum_r - dist
        np.fill_diagonal(overlap, 0.0)
        active = overlap > 0
        force = np.zeros_like(x)
        if active.any():
            mag = np.where(active, overlap / dist, 0.0)
            force += (mag[:, :, None] * diff).sum(axis=1)
        r_c = np.linalg.norm(x, axis=1)
        out = r_c + radii - container_radius
        pressed = out > 0
        if pressed.any():
            inward = -x[pressed] / np.maximum(r_c[pressed, None], 1e-12)
            force[pressed] += out[pressed, None] * inward
        x += step * force
        worst = float((overlap[active] / sum_r[active]).max()) if active.any() else 0.0
        wall_worst = float((out[pressed] / radii[pressed]).max()) if pressed.any() else 0.0
        if worst < 5e-4 and wall_worst < 5e-4:
            break
    return max(worst, wall_worst)


def _random_start(n, scale, seed=11):
    """Radii, container and centres drawn as ``_pack_disks`` draws them."""
    rng = np.random.default_rng(seed)
    radii = np.empty(n)
    radii[: n // 2] = networks.DISK_RADII[0]
    radii[n // 2:] = networks.DISK_RADII[1]
    rng.shuffle(radii)
    container = math.sqrt((radii ** 2).sum() / 0.91)
    theta = rng.uniform(0, 2 * math.pi, n)
    rad = 0.85 * container * np.sqrt(rng.uniform(0, 1, n))
    x = np.column_stack([rad * np.cos(theta), rad * np.sin(theta)])
    return x, radii * scale, container


def _ring_start(n, radius, disk_radius, container):
    """``n`` equal disks with centres evenly spaced on a circle."""
    theta = 2 * math.pi * np.arange(n) / n
    x = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    return x, np.full(n, disk_radius), container


def _packing_digest(net):
    h = hashlib.sha256()
    h.update(net.positions.tobytes())
    h.update(repr(net.edges).encode())
    h.update(net.fixed.tobytes())
    h.update(json.dumps(net.metadata, sort_keys=True).encode())
    return h.hexdigest()


class TestRelaxDisksMatchesDenseSweep:
    def assert_same_sweeps(self, start, sweeps):
        x, radii, container = start
        ref_x = x.copy()
        ref_worst = _reference_relax_disks(ref_x, radii, container, sweeps)
        worst = networks._relax_disks(x, radii, container, sweeps)
        assert np.array_equal(x, ref_x)
        assert worst == ref_worst

    @pytest.mark.parametrize("sweeps", [1, 300, 2000])
    @pytest.mark.parametrize("scale", [0.55, 0.8, 1.0])
    def test_random_48_disk_start(self, scale, sweeps):
        self.assert_same_sweeps(_random_start(48, scale), sweeps)

    def test_no_overlapping_pair(self):
        # small disks far apart, every one pressed into the wall
        x, radii, container = _ring_start(12, 3.0, 0.2, 3.1)
        gap = np.linalg.norm(x[1] - x[0]) - 2 * 0.2
        assert gap > 0 and 3.0 + 0.2 > container
        self.assert_same_sweeps((x, radii, container), 300)

    def test_every_disk_pressed_against_the_wall(self):
        # neighbours on the ring overlap too
        self.assert_same_sweeps(_ring_start(12, 2.2, 0.6, 2.2), 300)

    def test_three_disks(self):
        self.assert_same_sweeps(_random_start(3, 1.0), 300)


@pytest.mark.pins
class TestPackingDigests:
    # SHA-256 over positions, edges, fixed and metadata, recorded from the
    # dense sweep in ``_reference_relax_disks``
    @pytest.mark.parametrize("seed, n_disks, dilution, target, digest", [
        (2, 40, None, 18,
         "8be9198ae3b69a6bb0accb892590e6d2437f04b262aa72d4d3a34d636c4cabb2"),
        (2, 40, 1.0, None,
         "e20a23108411e69b8e67ee0492cac2c1b92deca4392529b5c59a3ca6e7003633"),
        (3, 36, 1.0, None,
         "755d8a0f5b37c82271706dc9314e94977813d2d8541f27049121879737637373"),
        (5, 36, None, 18,
         "6b2e309e1a6117c30594a57342e9d1bb70ba35f49e8e0c5a51899d2ba535492e"),
        (1, 48, None, 18,
         "3ae3c4fb99f8171f24ce9f15871ee9c9692c243d711c0af378f3c128a43a73c5"),
    ])
    def test_packing_is_unchanged(self, seed, n_disks, dilution, target, digest):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=seed,
                                      n_disks=n_disks,
                                      dilution_fraction=dilution,
                                      target_dof=target)
        assert _packing_digest(networks.generate_bidisperse_packing(spec)) == digest


class TestPackingFailures:
    SPEC = networks.GeneratorSpec(kind="bidisperse_packing", seed=7, n_disks=16)

    def test_residual_overlap_names_seed_scale_and_budget(self, monkeypatch):
        monkeypatch.setattr(networks, "_relax_disks",
                            lambda x, radii, container_radius, sweeps: 0.5)
        scale = 0.55
        for _ in range(60):
            scale *= 0.998
        with pytest.raises(PackingNotConverged) as info:
            networks.generate_bidisperse_packing(self.SPEC)
        assert str(info.value) == (
            f"seed 7: residual overlap 0.5 at disk scale {scale:.4f} "
            f"after 60 descents of 600 sweeps")

    def test_final_polish_names_seed_scale_and_budget(self, monkeypatch):
        monkeypatch.setattr(
            networks, "_relax_disks",
            lambda x, radii, container_radius, sweeps: 0.5 if sweeps == 2000 else 0.0)
        with pytest.raises(PackingNotConverged) as info:
            networks.generate_bidisperse_packing(self.SPEC)
        assert str(info.value) == ("seed 7: final polish left overlap 0.5 at "
                                   "disk scale 1.0000 after 2000 sweeps")

    def test_missed_target_names_last_draw(self, monkeypatch):
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=0,
                                      n_disks=16, target_dof=3)
        full = networks.generate_bidisperse_packing(networks.GeneratorSpec(
            kind="bidisperse_packing", seed=0, n_disks=16,
            dilution_fraction=1.0, target_dof=None))
        interior = [e for e in full.edges
                    if not (full.fixed[e.a] and full.fixed[e.b])]
        # one DoF short on every draw: each redraw asks for one more removal
        # until the count is clipped at all but one interior edge
        monkeypatch.setattr(rigidity, "dof", lambda R: 2)
        with pytest.raises(PackingNotConverged) as info:
            networks.generate_bidisperse_packing(spec)
        assert str(info.value) == (
            f"seed 0: could not reach target DoF 3 in 400 draws of edge "
            f"removals; the last removed {len(interior) - 1} edges and left DoF 2")


class TestFixtures:
    def test_robot_arm_dof(self, robot_arm):
        assert fd_dof(robot_arm) == 4

    def test_molecule_dof(self, molecule):
        assert fd_dof(molecule) == 5

    def test_molecule_without_side_chain_bonds(self, molecule):
        # dropping the bonds between side-chain atoms leaves 2*4 - 1 = 7 DoF
        kept = [e for e in molecule.edges
                if (e.a, e.b) not in {(4, 5), (5, 6)}]
        stripped = networks.Network(molecule.positions, kept, molecule.fixed)
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
            networks.Network([(0, 0), (1, 0)], [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            networks.Network([(0, 0), (1, 0)], [(0, 1), (1, 0)])

    def test_missing_node(self):
        with pytest.raises(SchemaError):
            networks.Network([(0, 0), (1, 0)], [(0, 5)])

    def test_negative_rest_length(self):
        with pytest.raises(SchemaError):
            networks.Network([(0, 0), (1, 0)], [(0, 1, -2.0)])

    def test_nan_position(self):
        # a defaulted rest length would be NaN too
        with pytest.raises(SchemaError, match="node 1"):
            networks.Network([(0, 0), (1, math.nan), (0, 1)],
                             [(0, 1), (1, 2)])

    @pytest.mark.parametrize("rest", [math.nan, math.inf])
    def test_non_finite_rest_length(self, rest):
        with pytest.raises(SchemaError, match="rest_length"):
            networks.Network([(0, 0), (1, 0)], [(0, 1, rest)])

    def test_nan_in_json_file(self, tmp_path):
        # json reads the bare NaN literal as a float
        path = tmp_path / "nan.json"
        path.write_text('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0},'
                        ' {"id": 1, "x": NaN, "y": 0.0}],'
                        ' "edges": [{"a": 0, "b": 1, "rest_length": 1.0}]}')
        with pytest.raises(SchemaError, match="node 1"):
            networks.load(path)


# One fault per input, on three nodes of which 0 and 1 coincide at the
# origin and none is fixed, unless the row gives its own positions or flags.
THREE_NODES = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]


def fault(edges, error, message, id, positions=THREE_NODES, fixed=None):
    return pytest.param(positions, edges, fixed, error, message, id=id)


SINGLE_FAULTS = [
    fault([(2, 2)], SelfLoopError, "edge (2,2) is a self-loop", "self-loop-pair"),
    fault([(0, 2), (2, 5)], SchemaError, "edge (2,5) references a missing node",
          "missing-node-pair"),
    fault([(-1, 2, 1.0)], SchemaError, "edge (-1,2) references a missing node",
          "missing-node-triple"),
    fault([(0, 2), (1, 0)], SchemaError, "edge (1,0) joins coincident nodes",
          "coincident-pair"),
    fault([(0, 2), (2, 0, 1.0)], DuplicateEdgeError, "edge (0,2) appears twice",
          "duplicate"),
    fault([(2, 1, 0.0)], SchemaError,
          "edge (1,2) rest_length 0.0 is not positive and finite", "rest-zero"),
    fault([(2, 1, -1.0)], SchemaError,
          "edge (1,2) rest_length -1.0 is not positive and finite", "rest-negative"),
    fault([(2, 1, math.nan)], SchemaError,
          "edge (1,2) rest_length nan is not positive and finite", "rest-nan"),
    fault([(2, 1, math.inf)], SchemaError,
          "edge (1,2) rest_length inf is not positive and finite", "rest-inf"),
    fault([], SchemaError, "positions must be an (N, 2) array", "positions-shape",
          positions=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]),
    fault([], SchemaError, "fixed must be a length-N boolean array", "fixed-shape",
          fixed=[True, False]),
]


@pytest.mark.parametrize("positions, edges, fixed, error, message", SINGLE_FAULTS)
def test_single_fault_edge_is_rejected(positions, edges, fixed, error, message):
    with pytest.raises(error) as info:
        networks.Network(positions, edges, fixed)
    assert type(info.value) is error
    assert str(info.value) == message


# Every way a network is made, from the 4x4 lattice fixture where it derives
# from one.
MADE = {
    "constructor": lambda net: networks.Network(
        net.positions.copy(), net.edges, net.fixed.copy(), net.metadata),
    "with_positions": lambda net: net.with_positions(net.positions + 0.1),
    "with_edges": lambda net: net.with_edges([(0, 1), (1, 2), (0, 5)]),
    "generate_triangular": lambda net: networks.generate_triangular(
        networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4),
                               boundary="fixed_rows")),
    "generate_bidisperse_packing": lambda net: networks.generate_bidisperse_packing(
        networks.GeneratorSpec(kind="bidisperse_packing", seed=3, n_disks=36,
                               target_dof=None)),
    "from_dict": lambda net: networks.from_dict(networks.to_dict(net)),
}


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

    def test_edges_cannot_be_edited_after_construction(self, lattice_4x4):
        dup = lattice_4x4.with_positions(lattice_4x4.positions)
        with pytest.raises(AttributeError):
            dup.edges.append(networks.Edge(0, 15, 3.0))
        assert lattice_4x4.n_edges == len(lattice_4x4.edge_arrays()[0]) == 21

    @pytest.mark.parametrize("make", MADE.values(), ids=MADE.keys())
    def test_arrays_are_read_only(self, make, lattice_4x4):
        before = networks.to_dict(lattice_4x4)
        net = make(lattice_4x4)
        for arr in (net.positions, net.fixed, *net.edge_arrays()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        net.metadata["extra"] = "1"
        assert networks.to_dict(lattice_4x4) == before

    def test_constructor_copies_its_inputs(self, lattice_4x4):
        positions = lattice_4x4.positions.copy()
        fixed = lattice_4x4.fixed.copy()
        net = networks.Network(positions, lattice_4x4.edges, fixed)
        positions[0] += 1.0
        fixed[:] = ~fixed
        assert networks.to_dict(net)["nodes"] == networks.to_dict(lattice_4x4)["nodes"]

    def test_grown_arm_shares_nothing_writable(self, robot_arm):
        grown = robot_arm.with_edges([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            grown.fixed[1] = True
        with pytest.raises(ValueError):
            grown.positions[1] = 0.0
        assert not robot_arm.fixed[1]

    def test_with_edges_keeps_held_rest_lengths(self):
        # edge (0, 1) is held at rest 1.2 while its ends are 1.0 apart
        net = networks.Network([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)],
                               [(0, 1, 1.2)], [True, False, False])
        grown = net.with_edges([(2, 1), (1, 0)])
        assert grown.edges == (networks.Edge(1, 2, np.sqrt(5.0)),
                               networks.Edge(0, 1, 1.2))
        assert net.with_edges([(0, 1, 0.7)]).edges == (networks.Edge(0, 1, 0.7),)


class TestJsonRoundTrip:
    def test_round_trip_identity(self, tmp_path, lattice_4x4):
        path = tmp_path / "net.json"
        networks.save(lattice_4x4, path)
        loaded = networks.load(path)
        assert np.array_equal(loaded.positions, lattice_4x4.positions)
        assert np.array_equal(loaded.fixed, lattice_4x4.fixed)
        assert list(loaded.edges) == sorted(lattice_4x4.edges)
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
        assert list(loaded.edges) == sorted(net.edges)
        assert np.array_equal(loaded.positions, net.positions)
