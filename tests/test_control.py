import numpy as np
import pytest

from floppynet import control, experiments, multiscale, networks, nullspace, rigidity
from floppynet.control import ControlTask
from floppynet.errors import FloppyNetError, ParameterError, ProjectionFailed

from conftest import trace_digest


class TestProjection:
    def test_restores_edge_lengths(self, robot_arm):
        rng = np.random.default_rng(0)
        x = robot_arm.positions + rng.normal(0, 0.01, robot_arm.positions.shape)
        x[robot_arm.fixed] = robot_arm.positions[robot_arm.fixed]
        projected = control.project_to_manifold(x, robot_arm)
        a, b, rest = robot_arm.edge_arrays()
        lengths = np.linalg.norm(projected[a] - projected[b], axis=1)
        assert np.abs(lengths / rest - 1).max() <= 1e-9

    def test_keeps_fixed_nodes(self, robot_arm):
        x = robot_arm.positions.copy()
        x[2] += 0.05
        projected = control.project_to_manifold(x, robot_arm)
        assert np.array_equal(projected[0], robot_arm.positions[0])

    def test_unreachable_bar_fails_after_the_newton_budget(self):
        # the bar between the two fixed nodes is held at twice their distance
        net = networks.Network([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)],
                               [(0, 1, 2.0), (0, 2), (1, 2)],
                               [True, True, False])
        with pytest.raises(ProjectionFailed,
                           match="constraint violation 0.5 after 50 Newton iterations"):
            control.project_to_manifold(net.positions, net)

    def test_matches_the_per_edge_jacobian_loop(self, lattice_4x4, hinged):
        # reference: the Jacobian written edge by edge over free-node columns
        def loop_projection(x, net):
            x = x.copy()
            a, b, rest = net.edge_arrays()
            free = list(np.flatnonzero(~net.fixed))
            for _ in range(control.PROJECTION_MAX_ITER):
                d = x[a] - x[b]
                lengths = np.linalg.norm(d, axis=1)
                if np.abs((lengths - rest) / rest).max() <= control.PROJECTION_TOL:
                    return x
                jac = np.zeros((len(a), 2 * len(free)))
                for row in range(len(a)):
                    for node, sign in ((a[row], 1.0), (b[row], -1.0)):
                        if node in free:
                            k = free.index(node)
                            jac[row, 2 * k: 2 * k + 2] = sign * d[row] / lengths[row]
                dx, *_ = np.linalg.lstsq(jac, rest - lengths, rcond=None)
                x[free] += dx.reshape(-1, 2)
            raise AssertionError("reference projection did not converge")

        for k, net in enumerate((lattice_4x4, hinged)):
            x = net.positions + np.random.default_rng(k).normal(
                0, 0.004, net.positions.shape)
            x[net.fixed] = net.positions[net.fixed]
            assert np.array_equal(control.project_to_manifold(x, net),
                                  loop_projection(x, net))


class TestMatchModes:
    def test_identity(self, robot_arm):
        R = rigidity.build(robot_arm)
        basis = nullspace.snd_basis(R)
        assert control.match_modes(basis, basis).tolist() == [0, 1, 2, 3]

    def test_sign_flip(self, robot_arm):
        R = rigidity.build(robot_arm)
        basis = nullspace.snd_basis(R)
        flipped = nullspace.ModeBasis(
            [nullspace.Mode(-m.vector, m.support, m.size_s, m.node_support)
             for m in basis.modes], "SND")
        assert control.match_modes(flipped, basis).tolist() == [0, 1, 2, 3]

    def test_rotated_pair_maximizes_total_cosine(self):
        # oracle: enumerate both assignments of a 45-degree rotated pair
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        r1 = c * e1 + s * e2
        r2 = -s * e1 + c * e2
        ref = nullspace.ModeBasis([nullspace.make_mode(e1),
                                   nullspace.make_mode(e2)], "SND")
        cur = nullspace.ModeBasis([nullspace.make_mode(r1),
                                   nullspace.make_mode(r2)], "SND")
        assign = control.match_modes(cur, ref)
        total = sum(abs(cur.modes[i].vector @ ref.modes[j].vector)
                    for i, j in enumerate(assign))
        best = max(
            abs(r1 @ e1) + abs(r2 @ e2),
            abs(r1 @ e2) + abs(r2 @ e1))
        assert total == pytest.approx(best, abs=1e-12)
        assert total == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_count_mismatch(self, robot_arm):
        R = rigidity.build(robot_arm)
        basis = nullspace.snd_basis(R)
        smaller = nullspace.ModeBasis(basis.modes[:3], "SND")
        with pytest.raises(FloppyNetError):
            control.match_modes(smaller, basis)


class TestRunTask:
    def test_target_already_reached(self, robot_arm):
        target = robot_arm.positions[3].copy()
        trace = control.run_task(ControlTask(robot_arm, [3], target,
                                             tolerance=0.01))
        assert trace.success
        assert trace.records == []
        assert trace.total_energy == 0.0

    def test_distance_strictly_decreases(self, robot_arm):
        target = np.array([1.0, 2.2])
        task = ControlTask(robot_arm, [3, 4], target, tolerance=0.08,
                           max_steps=300, step_size=0.05, seed=1)
        trace = control.run_task(task)
        assert trace.success
        distances = [r.distance for r in trace.records]
        assert all(b < a for a, b in zip(distances, distances[1:]))

    def test_edge_lengths_preserved(self, robot_arm):
        target = np.array([1.0, 2.2])
        task = ControlTask(robot_arm, [3, 4], target, tolerance=0.08,
                           max_steps=300, step_size=0.05, seed=1)
        trace = control.run_task(task)
        a, b, rest = robot_arm.edge_arrays()
        lengths = np.linalg.norm(trace.final_positions[a]
                                 - trace.final_positions[b], axis=1)
        assert np.abs(lengths / rest - 1).max() <= 1e-9

    def test_energy_additivity(self, robot_arm):
        target = np.array([1.4, 1.9])
        trace = control.run_task(ControlTask(robot_arm, [3, 4], target,
                                             tolerance=0.1, max_steps=200,
                                             step_size=0.05, seed=2))
        assert trace.total_energy == pytest.approx(
            sum(r.energy for r in trace.records), abs=0.0)

    def test_deterministic(self, robot_arm):
        target = np.array([1.0, 2.2])
        task = dict(effectors=[3, 4], target=target, tolerance=0.08,
                    max_steps=150, step_size=0.05, seed=7)
        a = control.run_task(ControlTask(robot_arm, **task))
        b = control.run_task(ControlTask(robot_arm, **task))
        assert a.records == b.records
        assert np.array_equal(a.final_positions, b.final_positions)

    def test_unreachable_target_fails_cleanly(self, robot_arm):
        target = np.array([50.0, 50.0])
        trace = control.run_task(ControlTask(robot_arm, [3], target,
                                             tolerance=0.01, max_steps=40,
                                             step_size=0.05))
        assert not trace.success
        assert len(trace.records) <= 40

    def test_fixed_effector_rejected(self, robot_arm):
        with pytest.raises(ValueError):
            ControlTask(robot_arm, [0], np.zeros(2))

    @pytest.mark.parametrize("effector", [-1, 5])
    def test_effector_outside_the_network_rejected(self, robot_arm, effector):
        with pytest.raises(ValueError, match="not a node"):
            ControlTask(robot_arm, [effector], np.zeros(2))

    @pytest.mark.parametrize("step_size", [0.0, -0.05, np.nan, np.inf])
    def test_step_size_not_positive_rejected(self, robot_arm, step_size):
        with pytest.raises(ValueError, match="step_size"):
            ControlTask(robot_arm, [3], np.zeros(2), step_size=step_size)

    @pytest.mark.parametrize("tolerance", [0.0, -0.05, np.nan, np.inf])
    def test_tolerance_not_positive_and_finite_rejected(self, robot_arm, tolerance):
        with pytest.raises(ParameterError, match="tolerance"):
            ControlTask(robot_arm, [3], np.zeros(2), tolerance=tolerance)

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_max_steps_below_one_rejected(self, robot_arm, max_steps):
        with pytest.raises(ParameterError, match="max_steps"):
            ControlTask(robot_arm, [3], np.zeros(2), max_steps=max_steps)

    @pytest.mark.parametrize("target", [
        [1.0, 2.2, 3.0], [1.0], 1.0, [[1.0, 2.2]], [1.0, np.nan], [np.inf, 2.2]])
    def test_target_not_a_finite_point_rejected(self, robot_arm, target):
        with pytest.raises(ValueError, match="finite point"):
            ControlTask(robot_arm, [3, 4], target)

    def test_multiscale_method(self, robot_arm):
        target = np.array([1.0, 2.2])
        trace = control.run_task(ControlTask(robot_arm, [3, 4], target,
                                             tolerance=0.1, max_steps=300,
                                             step_size=0.05,
                                             basis_method="multiscale", seed=3))
        assert trace.success

    def test_trace_carries_step_zero_mode_sizes(self, robot_arm):
        trace = control.run_task(ControlTask(robot_arm, [3, 4],
                                             np.array([1.0, 2.2]),
                                             tolerance=0.1, max_steps=300,
                                             step_size=0.05,
                                             basis_method="multiscale", seed=3))
        basis = multiscale.multiscale_basis(robot_arm, seed=3)
        assert trace.recanonicalized_at == []
        assert trace.mode_sizes == [m.size_s for m in basis.modes]

    def test_activation_times_match_records(self, robot_arm):
        target = np.array([1.2, 2.0])
        trace = control.run_task(ControlTask(robot_arm, [3, 4], target,
                                             tolerance=0.1, max_steps=200,
                                             step_size=0.05, seed=4))
        from_records: dict[int, list[int]] = {}
        for r in trace.records:
            from_records.setdefault(r.mode_id, []).append(r.step)
        assert from_records == trace.activation_times


def _reach_task(k, method):
    """Reaching task ``k``: a random free node of ``reaching_network`` and a
    target up to 0.3 away on each axis (some are out of reach)."""
    net = experiments.reaching_network()
    rng = np.random.default_rng(k)
    node = int(rng.choice(np.flatnonzero(~net.fixed)))
    target = net.positions[node] + rng.uniform(-0.3, 0.3, 2)
    return ControlTask(net, [node], target, tolerance=0.05, max_steps=150,
                       step_size=0.02, basis_method=method, seed=k)


def _grasp_task(k, method):
    """Grasp ``k``: the random arm pose and swung target of the grasping experiment."""
    arm, target = experiments._random_grasp_task(np.random.default_rng(k))
    return ControlTask(arm, [3, 4], target, basis_method=method, seed=k,
                       **experiments.GRASP_DEFAULTS)


# SHA-256 of every trace (``conftest.trace_digest``), recorded before the step
# scored all modes and signs in one array; each must stay bit-identical.
PINNED_TRACES = {
    ("reach", "SND"): [
        "beeacef15bb1b70a092bffe7fc0efba152198c7bcbc3f9b0c060c91a3de5a814",
        "98d96d4616d3393b3fc49cf5e7c630e604638c4ae9f3cb5e5b089b5a6c834f4d",
        "75a6aecc6a01f2d5015b056472d05b18d66e29664283bb6704a141eaa745f565",
        "454894f4a474066b7fdeda2b5531f479e49abf0afe0324fdba3bb3f4bab0451f",
        "9b0cea97c0b156871cb9281ad96d5b0424134df553eead593aac902189efea64",
        "191b8956b7b61ec824892876e64a0c92c34206b270a23b5e1bb3cb2782308da6",
    ],
    ("reach", "SVD"): [
        "3db11010a37c051dc48e13e4d489faf513b066cc94e541c10ff11247ebcd3a98",
        "bce556f796c2ee7174c726f53f9c1ec48358e55cb2dfce1c385a917988a59c7e",
        "15631e670d88306a2c5d2546de2c4fa2d550c8fc4428e507d1cf5d8c81b6681a",
        "4b613c004cb0681e420b743898024bb450222180dd85ed297d3af67b88888425",
        "3b2d960baea1fbd398f31e526c12291521abe231a3f01d3b53c2b8057a482961",
        "9bae16fbebac9b6d2973cdc52d9a22c9e712896c63062880de5ad572d4be9f73",
    ],
    ("reach", "multiscale"): [
        "7def7f53c4e961df0cb5ed8df09574106e88fad94c483f106ce5ddd651462d34",
        "3184dde1adf7a12beaac04745a49219b846184e84efeceef61e6a7c76edb6477",
        "fb3f4797f88aaec01a3d6c83b7f1d574b30eab6d51133ed8098995f10590fb2f",
        "c182f2b5e9df59a28812252e56c8710b88fbce5fc2a76edd8ef8d756ddb44e8b",
        "639d59d1979978ada2796a30fd34e85e00ac6e3b850286f1defad65ed38f4522",
        "cd7f1101729204d6e043aace5d75308a8676811a4c5da43f99d331f07c35760d",
    ],
    ("grasp", "SND"): [
        "bb55901f391fde4abd2e29e47b8809f25ea9fb959100b3d72aa28cc63e4bccbe",
        "4c63a8333184c6206068c9c65bde884ba64da9587daada582c8427d887398fac",
        "a1b92193a194d1c655de96d4d57d65ba7704a1f185c2612327628af344ab6b28",
        "34e169a4d76c0beae77a951e364051a3d0102fe261a54efe9af9393b08846d30",
        "489c7966b415b7f523cbb724433af34618089a4ea4c013cdcbab1adcf962e8b5",
        "376623bf35d64068e48c605688fda40f45d7f2dee6fad753596c7e2153e130a8",
    ],
    ("grasp", "SVD"): [
        "3c98a14bf6d7984c14550fa23f6a40271225f38359f0de9c4b3106cf56921053",
        "5de49355343b975ca59a1dcb49c38fba69588d40ba4b2098fd093cd9a292d455",
        "12c9e39fc42f9eeb4011d1772ab18e3d6f8c10af94b30941dc3fa4a51ab1e47c",
        "9fd829b7022a144fe815a714f70ca4eb0be8cf62fa6ec438c301425c0c677492",
        "7bd85c577e8323057b70f427e9f45aa5a77755c977b4be6402ae342345ddf21a",
        "dd78fe55ca4cb789c5b1a714039ea3bd02fed320311571257738f0862bc8a3a8",
    ],
    ("grasp", "multiscale"): [
        "1b799fab744e0c3564c1361208bcc111d8551988f4febc2519de0f2d6b274b2d",
        "b58058d09d0fbd56ea065c383264fea8b1e8a961a391e9bb14d43e99688517a4",
        "3a7c26aa40897bed341aa9250f21e70f312ece45c1ca6ba4962a69dfd04b56ca",
        "8734b4bf2ed474154a8d556eded4a59cc4d9d8a2ef3fc39bec8bfbb0a01a690e",
        "1c9bdb8bd0e0a9a5328d62a64bf09b258a5081681a5bd2deebcb27108a6e51f6",
        "8e932af5243224b4f31701bdfa0a3e69a0944660bd7a83321c69a59d7d44320c",
    ],
}


@pytest.mark.parametrize("kind, method, k", [
    (kind, method, k) for (kind, method), digests in PINNED_TRACES.items()
    for k in range(len(digests))])
def test_trace_digest_pinned(kind, method, k):
    make = _reach_task if kind == "reach" else _grasp_task
    trace = control.run_task(make(k, method))
    assert trace_digest(trace) == PINNED_TRACES[kind, method][k]
