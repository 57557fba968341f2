import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floppynet import networks, nullspace, rigidity
from floppynet.errors import NumericalBreakdown

from conftest import (basis_digest, finalize_vector, max_residual, named_network,
                      panel, span_residual)


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
        # a repeated row, or an all-zero one (no columns to read), is already
        # satisfied by every surviving row, so it is skipped and retires no row
        R = rigidity.build(lattice_4x4)
        k = 3
        before = nullspace.snd_basis(R)
        for extra in (R[k], np.zeros(R.shape[1])):
            after = nullspace.snd_basis(np.insert(R, k + 1, extra, axis=0))
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


# snd_basis (no shuffle) on each panel lattice, hashed by basis_digest;
# recorded before the one-pass column read and the trimmed row update
PINNED_SND = {
    0: "149159f1ac65b8651222feaa350ae09cadb72958a2e44f79489537a1c2f93575",
    1: "02bc9a0447e7d36c6c676be8dd51e133d36cb1f59e1dd41f68d0e84002534e9d",
    2: "8fd344d29d7fbfb6bf3062c7a33239980924d8e4b51e97fd61c351c2e2205845",
    3: "839e15105ccd90098d2140b3a283d8f8e1f72bac94a81f7b8977c9672aea3c17",
    4: "bf60f70f5407c3e10c9de5c970c93ac04c2ba2327dbc544ca9f4cf26e93e53e1",
}

# ensemble(R, m=10) on the 48-disk, target-18 packing of seed 1, recorded
# with PINNED_SND
PINNED_ENSEMBLE = "8a09c7b6e765d20d56c5d9b502d29e03e8bd76789b80be80079e0aadcf248a71"


@pytest.mark.pins
@pytest.mark.parametrize("k", sorted(PINNED_SND))
def test_snd_basis_bytes_pinned(k):
    R = rigidity.build(panel(k))
    assert basis_digest([nullspace.snd_basis(R)]) == PINNED_SND[k]


def seed1_packing():
    return networks.generate_bidisperse_packing(networks.GeneratorSpec(
        kind="bidisperse_packing", seed=1, n_disks=48, target_dof=18))


@pytest.mark.pins
def test_ensemble_bytes_pinned():
    bases = nullspace.ensemble(rigidity.build(seed1_packing()), m=10)
    assert basis_digest(bases) == PINNED_ENSEMBLE


# svd_basis on each panel lattice and the reaching network, hashed by
# basis_digest with one BLAS thread (LAPACK's threaded SVD moves the last bits
# of the larger panels with the thread count); recorded before the modes were
# finalised in one array pass
PINNED_SVD = {
    "panel0": "76c7490ea862313312ca757012f02463fb6701bd8673ada67904a31c9d6abfc7",
    "panel1": "f646aa4d999fe6879d7be804ed9bdb863a9da74fb34e342217419b32be29a317",
    "panel2": "358a07f45d84fbf88a0cba37ab299d3327d06a20bc1f2a272874593b62d845e0",
    "panel3": "25c1cf0f733541e4d53c980a250c40cf5c0abd729a523c7bbd2e35c1c2181cd7",
    "panel4": "9e522e9644062bf1a7a641e806d4c5d67ced2b1495d3b1c381ffee82ff2bd2c5",
    "reaching": "2016f7ca534dcc22a67c8163a4198c86ffda093bf255f13b13a2104d30bcf5e8",
}


@pytest.fixture(scope="module")
def one_thread_svd_digests():
    """``PINNED_SVD``'s digests, computed in a child process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(__file__), os.path.dirname(os.path.dirname(nullspace.__file__)),
         *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys\n"
            "from conftest import basis_digest, named_network\n"
            "from floppynet import nullspace, rigidity\n"
            "for name in sys.argv[1:]:\n"
            "    R = rigidity.build(named_network(name))\n"
            "    print(name, basis_digest([nullspace.svd_basis(R)]))\n")
    out = subprocess.run([sys.executable, "-c", code, *sorted(PINNED_SVD)],
                         env=env, check=True, capture_output=True, text=True)
    return dict(line.split() for line in out.stdout.splitlines())


@pytest.mark.pins
@pytest.mark.parametrize("name", sorted(PINNED_SVD))
def test_svd_basis_bytes_pinned(name, one_thread_svd_digests):
    assert one_thread_svd_digests[name] == PINNED_SVD[name]


def _finalise_corpus():
    """Row stacks the finalise pass sees: SVD null rows of the panels and the
    reaching network, 20 shuffled eliminations each of the seed-1 packing and
    the arm, and stacks holding all-zero rows."""
    for name in sorted(PINNED_SVD):
        _, s, vt = np.linalg.svd(rigidity.build(named_network(name)))
        yield name, vt[rigidity.rank_from_singular_values(s):]
    for name, R in (("packing", rigidity.build(seed1_packing())),
                    ("arm", rigidity.build(named_network("robot_arm")))):
        for seed in range(20):
            yield f"{name}-{seed}", nullspace.eliminate(R, seed)
    rng = np.random.default_rng(0)
    V = rng.normal(size=(6, 12)) * rng.choice([0.0, 1e-9, 1.0], size=(6, 12))
    V[1], V[4] = 0.0, -0.0
    yield "zero-rows", V
    yield "no-rows", np.zeros((0, 12))


@pytest.mark.pins
def test_finalise_rows_matches_the_one_vector_pass():
    for label, V in _finalise_corpus():
        expected = np.array([finalize_vector(v) for v in V]).reshape(V.shape)
        assert nullspace.finalise_rows(V).tobytes() == expected.tobytes(), label


@pytest.mark.parametrize("size,seed,participation", BENCHMARK_PANEL)
def test_snd_at_benchmarked_sizes(size, seed, participation):
    net = networks.generate_triangular(networks.GeneratorSpec(
        kind="triangular_lattice", dimensions=(size, size),
        dilution_fraction=0.6, seed=seed, boundary="fixed_rows"))
    R = rigidity.build(net)
    basis = nullspace.snd_basis(R)
    assert len(basis) == rigidity.dof(R)
    assert max_residual(R, basis) <= 1e-8
    assert span_residual(basis, nullspace.svd_basis(R)) <= 1e-7
    assert basis.participation == participation


class TestFinaliseRows:
    def test_read_only_copy(self):
        V = np.array([[0.0, -4.0, 3.0], [1.0, 1.0, 0.0]])
        out = nullspace.finalise_rows(V)
        assert not out.flags.writeable
        assert V[0, 1] == -4.0
        assert np.allclose(out, [[0.0, 0.8, -0.6], [2 ** -0.5, 2 ** -0.5, 0.0]])

    def test_make_mode_is_the_one_row_case(self):
        v = np.array([0.2, -0.9, 1e-10, 0.3])
        mode = nullspace.make_mode(v, "t")
        assert mode.vector.tobytes() == nullspace.finalise_rows(v[None])[0].tobytes()
        assert (mode.support, mode.tag) == ((0, 1, 3), "t")


class TestModeSign:
    def test_near_tie_keeps_first_entry_positive(self):
        # the two entries differ by round-off only; the first one leads
        mode = nullspace.make_mode(np.array([0.6, -0.6 * (1 + 1e-15)]))
        assert mode.vector[0] > 0
        assert mode.vector[1] < 0

    def test_clear_maximum_leads(self):
        mode = nullspace.make_mode(np.array([0.3, -0.9, 0.1]))
        assert mode.vector[1] > 0


class TestModeBookkeeping:
    def test_read_from_the_vector(self, hinged):
        for m in nullspace.snd_basis(rigidity.build(hinged)).modes:
            support = tuple(np.flatnonzero(m.vector).tolist())
            assert m.support == support
            assert m.size_s == len(support)
            assert m.node_support == tuple(sorted({i // 2 for i in support}))

    def test_replace_recomputes(self):
        mode = nullspace.make_mode(np.array([0.0, 0.6, 0.0, 0.0, 0.8, 0.0]), "x")
        assert (mode.support, mode.size_s, mode.node_support) == ((1, 4), 2, (0, 2))
        moved = dataclasses.replace(mode, vector=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
        assert (moved.support, moved.size_s, moved.node_support, moved.tag) == (
            (2,), 1, (1,), "x")

    def test_frozen(self):
        vector = np.array([0.0, 0.6, 0.0, 0.8])
        mode = nullspace.Mode(vector)
        for name, value in (("size_s", 1), ("support", (1,)), ("vector", vector),
                            ("tag", "y")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(mode, name, value)
        with pytest.raises(ValueError, match="read-only"):
            mode.vector[1] = 0.0
        vector[1] = 0.0             # the mode holds its own copy
        assert (mode.support, mode.vector[1]) == ((1, 3), 0.6)


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
        assert R.shape == (0, 4)
        for decompose in (nullspace.svd_basis, nullspace.snd_basis):
            basis = decompose(R)
            assert len(basis) == 4
            assert all(m.size_s == 1 for m in basis.modes)


class TestSpanEquivalence:
    def test_snd_svd_same_span(self, lattice_4x4):
        R = rigidity.build(lattice_4x4)
        snd = nullspace.snd_basis(R)
        svd = nullspace.svd_basis(R)
        assert span_residual(snd, svd) <= 1e-7

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
        modes = [nullspace.make_mode(np.arange(8) < s) for s in (2, 2, 4, 8)]
        assert [m.size_s for m in modes] == [2, 2, 4, 8]
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
            assert span_residual(bases[0], other) <= 1e-7

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
