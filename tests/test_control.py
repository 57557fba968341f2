import numpy as np
import pytest

from floppynet import control, multiscale, networks, nullspace, rigidity
from floppynet.control import ControlTask
from floppynet.errors import FloppyNetError


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
        assert control.match_modes(basis, basis) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_sign_flip(self, robot_arm):
        R = rigidity.build(robot_arm)
        basis = nullspace.snd_basis(R)
        flipped = nullspace.ModeBasis(
            [nullspace.Mode(-m.vector, m.support, m.size_s, m.node_support)
             for m in basis.modes], "SND")
        assert control.match_modes(flipped, basis) == {0: 0, 1: 1, 2: 2, 3: 3}

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
                    for i, j in assign.items())
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
