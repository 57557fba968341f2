import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floppynet import networks, nullspace, rigidity
from floppynet.errors import NumericalBreakdown

from conftest import max_residual


class TestSndBasis:
    def test_robot_arm_finger_modes(self, robot_arm):
        R = rigidity.build(robot_arm)
        basis = nullspace.snd_basis(R)
        assert len(basis) == 4
        sizes = [m.size_s for m in basis.modes]
        assert sizes[0] == sizes[1] == 2
        finger_supports = {basis.modes[0].node_support,
                           basis.modes[1].node_support}
        assert finger_supports == {(3,), (4,)}

    def test_molecule_split_supports(self, molecule):
        R = rigidity.build(molecule)
        basis = nullspace.snd_basis(R)
        assert len(basis) == 5
        chain = [m for m in basis.modes
                 if set(m.node_support) <= {4, 5, 6}]
        lone = [m for m in basis.modes if set(m.node_support) <= {7}]
        assert len(chain) == 3
        assert len(lone) == 2

    def test_null_space_residual(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        basis = nullspace.snd_basis(R)
        assert max_residual(R, basis) <= 1e-8

    def test_mode_count_matches_dof(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        assert len(nullspace.snd_basis(R)) == rigidity.dof(R)

    def test_modes_sorted_and_unit_norm(self, hinged):
        R = rigidity.build(hinged)
        basis = nullspace.snd_basis(R)
        sizes = [m.size_s for m in basis.modes]
        assert sizes == sorted(sizes)
        for m in basis.modes:
            assert np.linalg.norm(m.vector) == pytest.approx(1.0, abs=1e-12)
            assert m.size_s == len(m.support)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_elimination_invariant_random_shuffles(self, seed):
        # after the sweep every surviving row annihilates every constraint
        net = networks.lattice_fixture_4x4()
        R = rigidity.build(net)
        basis = nullspace.snd_basis(R, shuffle_seed=seed)
        assert len(basis) == 4
        assert max_residual(R, basis) <= 1e-8


    def test_duplicated_constraint_is_redundant(self, lattice_4x4):
        # a repeated row is already satisfied by every surviving row, so it
        # is skipped and retires no row
        R = rigidity.build(lattice_4x4)
        k = 3
        dup = np.insert(R, k + 1, R[k], axis=0)
        before = nullspace.snd_basis(R)
        after = nullspace.snd_basis(dup)
        assert len(after) == len(before)
        assert np.array_equal(after.vectors(), before.vectors())

    def test_breakdown_names_where_elimination_stopped(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        bad = R.copy()
        bad[5, np.flatnonzero(bad[5])[0]] = np.nan
        # each independent constraint before row 5 retires one row
        n_live = R.shape[1] - np.linalg.matrix_rank(R[:5])
        with pytest.raises(NumericalBreakdown,
                           match=f"constraint 5 of {R.shape[0]}: "
                                 f"{n_live} live rows left"):
            nullspace.snd_basis(bad)


# the decompose panel of the benchmark: (size, generator seed, participation)
BENCHMARK_PANEL = [(25, 0, 6414), (15, 1, 666), (15, 2, 455), (15, 3, 328),
                   (15, 4, 489)]


@pytest.mark.parametrize("size,seed,participation", BENCHMARK_PANEL)
def test_snd_at_benchmarked_sizes(size, seed, participation):
    net = networks.generate_triangular(networks.GeneratorSpec(
        kind="triangular_lattice", dimensions=(size, size),
        dilution_fraction=0.6, seed=seed, boundary="fixed_rows"))
    R = rigidity.build(net)
    basis = nullspace.snd_basis(R)
    assert len(basis) == rigidity.dof(R)
    assert max_residual(R, basis) <= 1e-8
    assert nullspace.span_residual(basis, nullspace.svd_basis(R)) <= 1e-7
    assert basis.participation == participation


class TestModeSign:
    def test_near_tie_keeps_first_entry_positive(self):
        # the two entries differ by round-off only; the first one leads
        mode = nullspace.make_mode(np.array([0.6, -0.6 * (1 + 1e-15)]))
        assert mode.vector[0] > 0
        assert mode.vector[1] < 0

    def test_clear_maximum_leads(self):
        mode = nullspace.make_mode(np.array([0.3, -0.9, 0.1]))
        assert mode.vector[1] > 0


class TestSvdBasis:
    def test_robot_arm(self, robot_arm):
        R = rigidity.build(robot_arm)
        basis = nullspace.svd_basis(R)
        assert len(basis) == 4

    def test_count_matches_dof(self, hinged):
        R = rigidity.build(hinged)
        assert len(nullspace.svd_basis(R)) == rigidity.dof(R)

    def test_orthonormal(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        vectors = nullspace.svd_basis(R).vectors()
        gram = vectors @ vectors.T
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-10

    def test_empty_matrix_gives_identity_modes(self):
        net = networks.Network([(0, 0), (1, 0)], [])
        R = rigidity.build(net)
        basis = nullspace.svd_basis(R)
        assert len(basis) == 4
        assert all(m.size_s == 1 for m in basis.modes)


class TestSpanEquivalence:
    def test_snd_svd_same_span(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        snd = nullspace.snd_basis(R)
        svd = nullspace.svd_basis(R)
        assert nullspace.span_residual(snd, svd) <= 1e-7

    def test_idempotent_resparsification(self, hinged):
        # running the decomposition on a matrix whose null space is already
        # spanned by a sparse basis reproduces the same participation
        R = rigidity.build(hinged)
        basis = nullspace.snd_basis(R)
        vectors = basis.vectors()
        # a matrix with exactly that null space: project onto the complement
        _, _, vt = np.linalg.svd(vectors)
        complement = vt[len(basis):]
        again = nullspace.snd_basis(complement)
        assert again.participation == basis.participation


class TestMetrics:
    def test_participation_arithmetic(self):
        modes = [nullspace.make_mode(v) for v in np.eye(8)[:4]]
        for m, s in zip(modes, (2, 2, 4, 8)):
            m.size_s = s
        basis = nullspace.ModeBasis(modes, "SND")
        assert basis.participation == 16

    def test_participation_floor(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        basis = nullspace.snd_basis(R)
        assert basis.participation >= len(basis)

    def test_snd_sparser_than_svd_on_fixture(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        bases = nullspace.ensemble(R, m=100)
        p_svd = nullspace.svd_basis(R).participation
        assert np.mean([b.participation for b in bases]) < p_svd

    def test_involvement_counts(self, molecule):
        R = rigidity.build(molecule)
        basis = nullspace.snd_basis(R)
        q = nullspace.involvement_Q(basis, molecule.n_nodes)
        assert q[0] == 0          # fixed backbone atom is in no mode
        assert q[7] == 2          # the lone atom carries two modes
        assert all(v >= 0 for v in q.values())

    def test_involvement_bounded_by_participation(self, lattice_4x4):
        # each involved node contributes one or two coordinates per mode
        R = rigidity.build(lattice_4x4)
        basis = nullspace.snd_basis(R)
        q = nullspace.involvement_Q(basis, lattice_4x4.n_nodes)
        total = sum(q.values())
        P = basis.participation
        assert P / 2 <= total <= P

    def test_mean_q_snd_below_svd(self, hinged):
        R = rigidity.build(hinged)
        q_snd = nullspace.involvement_Q(nullspace.snd_basis(R), hinged.n_nodes)
        q_svd = nullspace.involvement_Q(nullspace.svd_basis(R), hinged.n_nodes)
        assert np.mean(list(q_snd.values())) < np.mean(list(q_svd.values()))


class TestEnsemble:
    def test_singleton_matches_direct(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        bases = nullspace.ensemble(R, m=1, base_seed=42)
        direct = nullspace.snd_basis(R, shuffle_seed=42)
        assert np.array_equal(bases[0].vectors(), direct.vectors())

    def test_mode_counts_agree(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        bases = nullspace.ensemble(R, m=10)
        assert len(bases) == 10
        assert len({len(b) for b in bases}) == 1

    def test_reproducible(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        a = nullspace.ensemble(R, m=5, base_seed=3)
        b = nullspace.ensemble(R, m=5, base_seed=3)
        assert [x.participation for x in a] == [y.participation for y in b]

    def test_all_bases_span_same_subspace(self, hinged):
        R = rigidity.build(hinged)
        bases = nullspace.ensemble(R, m=6)
        for other in bases[1:]:
            assert nullspace.span_residual(bases[0], other) <= 1e-7

    def test_bad_size(self, robot_arm):
        R = rigidity.build(robot_arm)
        with pytest.raises(ValueError):
            nullspace.ensemble(R, m=0)


def test_basis_json_dump(robot_arm):
    R = rigidity.build(robot_arm)
    basis = nullspace.snd_basis(R, shuffle_seed=5)
    data = nullspace.basis_to_dict(basis)
    assert data["method"] == "SND"
    assert data["seed"] == 5
    assert len(data["modes"]) == 4
    for entry, mode in zip(data["modes"], basis.modes):
        assert entry["size"] == mode.size_s
        assert len(entry["entries"]) == mode.size_s


class TestStatisticalDominance:
    def test_median_participation_over_random_lattices(self):
        # sparse bases should not lose to SVD in the median over many
        # random under-constrained lattices
        rng = np.random.default_rng(7)
        p_snd, p_svd = [], []
        count = 0
        while count < 50:
            spec = networks.GeneratorSpec(
                kind="triangular_lattice",
                dimensions=(int(rng.integers(3, 6)), int(rng.integers(3, 6))),
                dilution_fraction=float(rng.uniform(0.45, 0.85)),
                seed=int(rng.integers(2 ** 31)),
                boundary="fixed_bottom_row")
            net = networks.generate_triangular(spec)
            R = rigidity.build(net)
            if rigidity.dof(R) == 0:
                continue
            count += 1
            p_snd.append(nullspace.snd_basis(R, shuffle_seed=count).participation)
            p_svd.append(nullspace.svd_basis(R).participation)
        assert np.median(p_snd) <= np.median(p_svd)

    def test_prefix_elimination_invariant(self, lattice_4x4):
        # processing only the first i constraints must already annihilate them
        R = rigidity.build(lattice_4x4)
        m = R.shape[0]
        for i in (1, m // 3, 2 * m // 3, m):
            prefix = R[:i]
            basis = nullspace.snd_basis(prefix)
            assert max(m_.max_residual(prefix) for m_ in basis.modes) <= 1e-8
