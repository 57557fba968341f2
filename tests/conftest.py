import hashlib
import math

import numpy as np
import pytest

from floppynet import experiments, networks, nullspace
from floppynet.networks import GeneratorSpec

# every line test_acceptance.report made in this run, PASS and FAIL
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance lines at the end of every run, captured or not."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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


def span_residual(basis_a, basis_b):
    """Worst reconstruction error projecting either basis onto the other's span."""
    va, vb = basis_a.vectors(), basis_b.vectors()
    if va.shape[0] == 0 and vb.shape[0] == 0:
        return 0.0
    if va.shape[0] == 0 or vb.shape[0] == 0:
        return 1.0

    def one_way(v, w):
        q, _ = np.linalg.qr(w.T)        # orthonormal basis for span(w)
        resid = v.T - q @ (q.T @ v.T)
        return float(np.linalg.norm(resid, axis=0).max())

    return max(one_way(va, vb), one_way(vb, va))


def finalize_vector(v):
    """One row finalised the way modes were made before ``finalise_rows``, one
    vector at a time; the oracle its rows must match byte for byte."""
    v = np.asarray(v, float).copy()
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        return v
    v /= norm
    v[np.abs(v) < nullspace.ZERO_TOL] = 0.0
    v /= math.sqrt(v.dot(v))
    mag = np.abs(v)
    lead = (mag >= mag.max() * (1.0 - nullspace._LEAD_REL)).argmax()
    if v[lead] < 0:
        v = -v
    return v


def basis_digest(bases):
    """SHA-256 over the ``ModeBasis`` objects in ``bases``, in order, floats by their bits."""
    h = hashlib.sha256()
    for basis in bases:
        h.update(repr((basis.method, basis.seed)).encode())
        for m in basis.modes:
            h.update(m.vector.tobytes())
            h.update(repr(([int(i) for i in m.support], m.size_s,
                           [int(u) for u in m.node_support], m.tag)).encode())
    return h.hexdigest()


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
