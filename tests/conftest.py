import hashlib

import numpy as np
import pytest

from floppynet import experiments, networks
from floppynet.networks import GeneratorSpec


@pytest.fixture
def robot_arm():
    return networks.fixture("robot_arm")


@pytest.fixture
def molecule():
    return networks.fixture("molecule_fixture")


@pytest.fixture
def lattice_4x4():
    return networks.lattice_fixture_4x4()


@pytest.fixture
def hinged():
    return networks.hinged_fixture()


@pytest.fixture
def pinned_bar():
    return networks.Network([(0.0, 0.0), (0.7, 0.4)], [(0, 1)],
                            [True, False])


@pytest.fixture
def free_triangle():
    return networks.Network([(0.0, 0.0), (1.0, 0.1), (0.4, 0.9)],
                            [(0, 1), (1, 2), (0, 2)])


NEAR_DEGENERATE_DELTAS = (3e-10, 1e-9)


def near_degenerate(delta):
    """Two pinned bars meeting at a free node lifted by ``delta``, plus an
    isolated fixed node near it.  The values-only SVD counts one floppy mode
    (``dof`` 1), while SND, at its absolute drop tolerance, builds none."""
    return networks.Network(
        [(0.0, 0.0), (1.0, delta), (2.0, 0.0), (1.0, -0.9)],
        [(0, 1), (1, 2)], [True, False, True, True], {"generator": "custom"})


@pytest.fixture(params=NEAR_DEGENERATE_DELTAS, ids=["3e-10", "1e-9"])
def near_degenerate_chain(request):
    return near_degenerate(request.param)


def lattice(size, dilution, seed):
    """A ``size`` x ``size`` diluted lattice with its top and bottom rows fixed."""
    return networks.generate_triangular(GeneratorSpec(
        kind="triangular_lattice", dimensions=(size, size),
        dilution_fraction=dilution, seed=seed, boundary="fixed_rows"))


def panel(k):
    """The benchmark's ``decompose`` participation panel, lattice ``k``."""
    return lattice((25, 15, 15, 15, 15)[k], 0.6, k)


ARM_POSES = [(0.7, 1.3), (1.9, -1.6), (2.4, 1.1)]


def named_network(name):
    """A fixture, a panel lattice (``panel<k>``) or an arm pose (``arm<k>``) by name."""
    if name.startswith("panel"):
        return panel(int(name[5:]))
    if name.startswith("arm"):
        return networks.make_robot_arm(*ARM_POSES[int(name[3:])])
    return {"robot_arm": lambda: networks.fixture("robot_arm"),
            "molecule": lambda: networks.fixture("molecule_fixture"),
            "lattice_4x4": networks.lattice_fixture_4x4,
            "hinged": networks.hinged_fixture,
            "reaching": experiments.reaching_network}[name]()


def max_residual(R, basis):
    """The largest constraint violation over the modes of ``basis`` (0 if empty)."""
    return max((m.max_residual(R) for m in basis.modes), default=0.0)


def trace_digest(trace):
    """SHA-256 over everything a ``ControlTrace`` reports, floats by their bits."""
    h = hashlib.sha256()
    h.update(np.array(trace.records, dtype=float).tobytes())
    h.update(trace.final_positions.tobytes())
    h.update(np.array([trace.success, trace.total_energy], dtype=float).tobytes())
    h.update(repr(sorted((int(k), [int(s) for s in v])
                         for k, v in trace.activation_times.items())).encode())
    h.update(repr([int(s) for s in trace.recanonicalized_at]).encode())
    h.update(repr([int(s) for s in trace.mode_sizes]).encode())
    return h.hexdigest()


def constraint_values(network, positions):
    """Stacked constraint functions: squared-length and anchor residuals."""
    vals = []
    for e in network.edges:
        d = positions[e.a] - positions[e.b]
        vals.append(d @ d - e.rest_length ** 2)
    for node in np.flatnonzero(network.fixed):
        vals.append(positions[node, 0] - network.positions[node, 0])
        vals.append(positions[node, 1] - network.positions[node, 1])
    return np.array(vals)


def fd_jacobian(network, eps=1e-6):
    """Independent constraint Jacobian by central finite differences."""
    x0 = network.positions.copy()
    n = network.n_coords
    m = network.n_edges + 2 * int(network.fixed.sum())
    jac = np.zeros((m, n))
    for j in range(n):
        xp = x0.copy()
        xp[j // 2, j % 2] += eps
        xm = x0.copy()
        xm[j // 2, j % 2] -= eps
        jac[:, j] = (constraint_values(network, xp)
                     - constraint_values(network, xm)) / (2 * eps)
    return jac


def fd_rank(network, tol=1e-7):
    """Numeric rank of the finite-difference Jacobian."""
    jac = fd_jacobian(network)
    s = np.linalg.svd(jac, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > tol * s[0]).sum())


def fd_dof(network, tol=1e-7):
    return network.n_coords - fd_rank(network, tol)
