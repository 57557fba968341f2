import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floppynet import loadpredict, networks, rigidity
from floppynet.errors import EdgeMismatchError
from floppynet.loadpredict import GlobalityMap


@pytest.fixture(scope="module")
def packed_18dof():
    spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=1,
                                  n_disks=40, target_dof=18)
    return networks.generate_bidisperse_packing(spec)


class TestGlobality:
    def test_fixed_nodes_are_rigid_with_zero_f(self, molecule):
        gmap = loadpredict.globality(molecule, m=5)
        for node in np.flatnonzero(molecule.fixed):
            assert gmap.f[int(node)] == 0.0
            assert int(node) in gmap.rigid_nodes

    def test_pendulum_node_min_mode_size(self):
        # lone pinned pendulum: its only mode has two nonzero entries
        net = networks.Network([(0.0, 0.0), (0.6, 0.7)], [(0, 1)],
                               [True, False])
        gmap = loadpredict.globality(net, m=7)
        assert gmap.f[1] == pytest.approx(2.0)
        assert 1 not in gmap.rigid_nodes

    def test_two_run_average(self):
        gmap = GlobalityMap({0: 5.0}, m=2, rigid_nodes=frozenset())
        # direct arithmetic check of the ensemble average definition
        assert (4 + 6) / 2 == 5.0 == gmap.f[0]

    def test_average_over_runs(self, molecule):
        gmap = loadpredict.globality(molecule, m=10)
        # the lone atom's smallest involving mode always has a single entry
        assert gmap.f[7] == pytest.approx(1.0)
        # chain tip participates in modes of sizes 2..4; average in range
        assert 2.0 <= gmap.f[6] <= 4.0

    def test_deterministic(self, packed_18dof):
        a = loadpredict.globality(packed_18dof, m=8, base_seed=3)
        b = loadpredict.globality(packed_18dof, m=8, base_seed=3)
        assert a.f == b.f
        assert a.rigid_nodes == b.rigid_nodes


class TestPrediction:
    def test_all_eligible_rigid_disk(self):
        # a rigid triangulated patch: every node eligible, prediction is the
        # union of shortest boundary-to-boundary paths
        pos = [(0, 0), (1, 0), (0.5, 0.9), (1.5, 0.9)]
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        net = networks.Network(pos, edges, [True, True, False, False])
        gmap = loadpredict.globality(net, m=3)
        predicted = loadpredict.predict_loaded_edges(net, gmap, t=0.0)
        assert predicted == {(0, 1)}

    def test_eligibility_collapse_marks_direct_edges(self, packed_18dof):
        gmap = loadpredict.globality(packed_18dof, m=10)
        huge_t = max(gmap.f.values()) + 1
        rigid_free = GlobalityMap(gmap.f, gmap.m, frozenset())
        predicted = loadpredict.predict_loaded_edges(packed_18dof, rigid_free,
                                                     t=huge_t)
        for a, b in predicted:
            assert packed_18dof.fixed[a] and packed_18dof.fixed[b]

    def test_predicted_edges_have_eligible_endpoints(self, packed_18dof):
        gmap = loadpredict.globality(packed_18dof, m=20)
        predicted = loadpredict.predict_loaded_edges(packed_18dof, gmap, t=12)
        eligible = loadpredict.eligible_nodes(packed_18dof, gmap, 12)
        for a, b in predicted:
            assert a in eligible and b in eligible

    def test_lower_threshold_never_shrinks_eligibility(self, packed_18dof):
        gmap = loadpredict.globality(packed_18dof, m=10)
        hi = loadpredict.eligible_nodes(packed_18dof, gmap, 15.0)
        lo = loadpredict.eligible_nodes(packed_18dof, gmap, 5.0)
        assert hi <= lo

    def test_mark_all_ties_is_superset(self, packed_18dof):
        gmap = loadpredict.globality(packed_18dof, m=20)
        single = loadpredict.predict_loaded_edges(packed_18dof, gmap, t=12)
        tied = loadpredict.predict_loaded_edges(packed_18dof, gmap, t=12,
                                                mark_all_ties=True)
        assert single <= tied


class TestScore:
    def test_eta_arithmetic(self):
        # n_b=5, n_o=10, n_t=20 -> eta = 0.75
        predicted = {(0, i) for i in range(1, 9)}           # 8 predicted
        extensions = {}
        for i in range(1, 9):
            extensions[(0, i)] = 1.0 if i <= 5 else 0.0     # 5 hits, 3 misses
        for i in range(9, 21):
            extensions[(0, i)] = 1.0 if i <= 10 else 0.0    # 2 missed loads
        report = loadpredict.score(predicted, extensions, e=0.5)
        assert report.n_t == 20
        assert report.n_b == 5
        assert report.n_o == 10
        assert report.eta == pytest.approx(0.75)

    def test_perfect_prediction(self):
        extensions = {(0, 1): 0.9, (1, 2): 0.0, (2, 3): 0.8}
        report = loadpredict.score({(0, 1), (2, 3)}, extensions, e=0.5)
        assert report.eta == 1.0

    def test_edge_mismatch(self):
        with pytest.raises(EdgeMismatchError):
            loadpredict.score({(7, 9)}, {(0, 1): 1.0}, e=0.5)

    def test_edge_keyed_either_way_round(self):
        rng = np.random.default_rng(4)
        edges = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        extensions = {e: float(rng.uniform(0, 0.2)) for e in edges}
        reversed_keys = {(b, a): v for (a, b), v in extensions.items()}
        mixed = {(e if i % 2 else e[::-1]): v
                 for i, (e, v) in enumerate(extensions.items())}
        predicted = [e for e in edges if rng.uniform() < 0.4] + [(5, 3)]
        grid = [0.0, 0.05, 0.1, 0.15, 0.2]
        for measured in (reversed_keys, mixed):
            assert (loadpredict.score(predicted, measured, 0.05, t=3.0)
                    == loadpredict.score(predicted, extensions, 0.05, t=3.0))
            assert (loadpredict.threshold_sweep(predicted, measured, grid)
                    == loadpredict.threshold_sweep(predicted, extensions, grid))

    def test_eta_bounds(self):
        extensions = {(0, 1): 0.2, (1, 2): 0.4}
        for e in (0.0, 0.1, 0.3, 0.5):
            r = loadpredict.score({(0, 1)}, extensions, e)
            assert 0.0 <= r.eta <= 1.0
            assert r.n_b + r.n_o <= r.n_t


class TestThresholdSweep:
    def test_limiting_cases(self):
        predicted = {(0, 1)}
        extensions = {(0, 1): 0.3, (1, 2): 0.1, (2, 3): 0.0}
        curve, _, _ = loadpredict.threshold_sweep(
            predicted, extensions, [0.0, 0.05, 0.2, 1.0])
        etas = dict(curve)
        # e = 0: loaded = strictly positive extensions
        assert etas[0.0] == pytest.approx(2 / 3)
        # e beyond max: nothing loaded; score counts predicted-unloaded
        assert etas[1.0] == pytest.approx(2 / 3)

    def test_piecewise_constant_between_breakpoints(self):
        rng = np.random.default_rng(1)
        edges = [(0, i) for i in range(1, 11)]
        extensions = {e: float(v) for e, v in zip(edges, rng.uniform(0, 1, 10))}
        predicted = set(edges[:4])
        mags = sorted(abs(v) for v in extensions.values())
        for lo, hi in zip(mags, mags[1:]):
            grid = [lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)]
            curve, _, _ = loadpredict.threshold_sweep(predicted, extensions, grid)
            assert curve[0][1] == curve[1][1]

    def test_value_changes_only_at_breakpoints(self):
        extensions = {(0, 1): 0.5, (1, 2): 0.2}
        predicted = {(0, 1)}
        curve, _, _ = loadpredict.threshold_sweep(
            predicted, extensions, [0.1, 0.3, 0.6])
        assert curve[0][1] != curve[1][1] or curve[1][1] != curve[2][1]

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            loadpredict.threshold_sweep(set(), {(0, 1): 1.0}, [0.5, 0.1])

    @given(st.lists(st.floats(0, 1, width=32), min_size=3, max_size=12,
                    unique=True))
    @settings(max_examples=20, deadline=None)
    def test_eta_always_in_unit_interval(self, values):
        edges = [(0, i + 1) for i in range(len(values))]
        extensions = {e: float(v) for e, v in zip(edges, values)}
        predicted = set(edges[::2])
        grid = sorted({abs(v) for v in values})
        curve, _, best = loadpredict.threshold_sweep(predicted, extensions, grid)
        assert all(0 <= eta <= 1 for _, eta in curve)
        assert 0 <= best <= 1


def test_globality_invariant_under_relabeling():
    # two pendulums and a free node: every floppy piece has a unique mode
    # set, so relabeling nodes permutes f exactly
    net = networks.Network(
        [(0.0, 0.0), (0.6, 0.7), (3.0, 0.0), (3.5, 0.8), (1.5, 2.0)],
        [(0, 1), (2, 3)],
        [True, False, True, False, False])
    gmap = loadpredict.globality(net, m=10)
    perm = np.array([4, 2, 0, 3, 1])              # new id of each old node
    inverse = np.argsort(perm)
    relabeled = networks.Network(
        net.positions[inverse],
        [(perm[e.a], perm[e.b], e.rest_length) for e in net.edges],
        net.fixed[inverse])
    gmap2 = loadpredict.globality(relabeled, m=10)
    for old in range(net.n_nodes):
        assert gmap2.f[int(perm[old])] == pytest.approx(gmap.f[old], abs=1e-12)
