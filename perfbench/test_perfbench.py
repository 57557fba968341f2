"""Quick tests of the benchmark itself: checks reject corrupted outputs, and
the span arithmetic is right on a synthetic tree."""

import dataclasses

import numpy as np
import pytest

from floppynet import networks, nullspace, rigidify
from floppynet.networks import GeneratorSpec
from floppynet.springsim import SimConfig

from perfbench import checks, tracing, workloads


def _span(name, start, end, parent=-1, item=0):
    return [name, start, end, parent, item]


def test_self_times_subtract_the_union_of_children():
    spans = [
        _span("rigidity.build", 0.0, 10.0),
        _span("rigidity.dof", 1.0, 4.0, parent=0),
        _span("rigidity.dof", 3.0, 6.0, parent=0),          # overlaps its sibling
        _span("nullspace.snd_basis", 2.0, 3.0, parent=1),
        _span("nullspace.svd_basis", 8.0, 12.0, parent=0),   # runs past its parent
        _span("rigidity.build", 20.0, 21.5, item=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.5])
    metrics = tracing.layer_metrics(spans, {"rigidity.build.rows": 8}, rounds=2)
    assert metrics["rigidity.build.calls"] == 1.0
    assert metrics["rigidity.build.self_s"] == pytest.approx(2.25)
    assert metrics["rigidity.dof.self_s"] == pytest.approx(2.5)
    assert metrics["rigidity.build.rows"] == 4.0
    assert metrics["springsim.relax.step_us"] == 0.0
    assert tracing.top_level_time(spans) == {0: 10.0, 1: 1.5}


def test_tracer_records_nested_calls_and_restores_originals():
    from floppynet import multiscale, rigidity
    originals = (rigidity.build, nullspace.snd_basis, networks.Network.edge_arrays)
    net = networks.lattice_fixture_4x4()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_item(0)
        multiscale.multiscale_basis(net)
        net.edge_arrays()
    finally:
        tracer.uninstall()
    assert (rigidity.build, nullspace.snd_basis,
            networks.Network.edge_arrays) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "multiscale.multiscale_basis"
    assert "nullspace.snd_basis" in names and "multiscale.find_hinges" in names
    assert all(s[3] == 0 for s in tracer.spans[1:-1])
    assert tracer.spans[-1][0] == "networks.Network.edge_arrays"
    assert tracer.counts["rigidity.build.rows"] > 0


def test_decompose_check_rejects_a_perturbed_mode_entry():
    wl = workloads.Decompose()
    net = networks.generate_triangular(GeneratorSpec(
        kind="triangular_lattice", dimensions=(7, 7), dilution_fraction=0.6,
        seed=3, boundary="fixed_rows"))
    out = wl.run(net)
    assert out["dof"] > 0 and wl.check(net, out) == []
    mode = out["snd"].modes[0]
    k = int(np.flatnonzero(mode.vector)[0])
    vector = mode.vector.copy()
    vector[k] += 1e-3
    out["snd"].modes[0] = dataclasses.replace(mode, vector=vector)
    assert wl.check(net, out)


def test_control_check_rejects_positions_off_the_manifold():
    wl = workloads.Control()
    task = wl._grasp(np.random.default_rng(4))
    trace = wl.run(task)
    assert trace.records and wl.check(task, trace) == []
    moved = trace.final_positions.copy()
    moved[1] += 1e-3
    assert wl.check(task, dataclasses.replace(trace, final_positions=moved))


def test_predict_check_rejects_a_ratio_off_by_one_edge():
    spec = GeneratorSpec(kind="bidisperse_packing", seed=0, n_disks=16, target_dof=3)
    out = workloads.Predict()._predict(networks.generate_bidisperse_packing(spec), 0,
                                       m=3, steps=200)
    assert checks.check_predict(out, 3, networks.CONTACT_TOL) == []
    off = dict(out, best_eta=out["best_eta"] - 1 / out["network"].n_edges)
    assert checks.check_predict(off, 3, networks.CONTACT_TOL)


def test_rigidify_check_rejects_a_link_that_is_no_unused_bond():
    net = workloads.Rigidify().instances[0]
    run = rigidify.tune(net, "random", seed=5, stop_at=3, config=SimConfig(steps=50))
    assert checks.check_tune(net, run, 3) == []
    used = (net.edges[0].a, net.edges[0].b)
    bad = dataclasses.replace(run, link_sequence=[used] + run.link_sequence[1:])
    assert checks.check_tune(net, bad, 3)


def test_mixed_workload_rounds_repeat_per_seed_and_keep_each_family_whole():
    wl = workloads.WORKLOADS["rigidify_predict"]()
    def seeds(items):
        return [item if k else item[2] for k, item in items]

    a = wl.inputs(7, 2)
    assert [k for k, _ in a] == [0] * 7 + [1]
    assert seeds(a) == seeds(wl.inputs(7, 2))
    assert seeds(a) != seeds(wl.inputs(8, 2))
