import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import floppynet
from floppynet import cli, networks, render


def run(args):
    return cli.main([str(a) for a in args])


class TestGenerate:
    def test_lattice(self, tmp_path):
        out = tmp_path / "net.json"
        assert run(["generate", "--kind", "triangular_lattice",
                    "--nx", 4, "--ny", 4, "--out", out]) == 0
        net = networks.load(out)
        assert net.n_nodes == 16
        assert net.n_edges == 33

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["--seed", 5, "generate", "--kind", "triangular_lattice",
                        "--nx", 5, "--ny", 5, "--dilution", 0.6,
                        "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_kind_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--kind", "klein_bottle",
                 "--out", tmp_path / "x.json"])
        assert exc.value.code == 2

    def test_domain_error_exit_1(self, tmp_path):
        assert run(["generate", "--kind", "triangular_lattice", "--nx", 1,
                    "--ny", 4, "--out", tmp_path / "x.json"]) == 1

    def test_packing_with_a_lattice_boundary(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["generate", "--kind", "bidisperse_packing", "--boundary",
                    "fixed_rows", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error [bad-generator-spec]")
        assert not out.exists()


NETWORK_COMMANDS = ["decompose", "control", "simulate", "rigidify", "predict", "render"]


@pytest.mark.parametrize("command", NETWORK_COMMANDS + ["generate", "compare"])
def test_network_options_on_the_network_commands(command, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    usage = capsys.readouterr().out
    takes = command in NETWORK_COMMANDS
    assert ("--network" in usage, "--fixture" in usage) == (takes, takes)


@pytest.mark.parametrize("given", [
    pytest.param([], id="neither"),
    pytest.param(["--network", "net.json", "--fixture", "robot_arm"], id="both"),
])
def test_network_commands_need_one_network_source(tmp_path, capsys, given):
    out = tmp_path / "basis.json"
    with pytest.raises(SystemExit) as exc:
        run(["decompose", *given, "--out", out])
    assert exc.value.code == 2
    assert "--network" in capsys.readouterr().err
    assert not out.exists()


class TestDecompose:
    def test_snd_fixture(self, tmp_path):
        out = tmp_path / "basis.json"
        assert run(["decompose", "--fixture", "robot_arm", "--method", "snd",
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["method"] == "SND"
        assert len(data["modes"]) == 4
        assert "warning" not in data

    def test_ensemble_runs_have_four_modes(self, tmp_path):
        netfile = tmp_path / "net.json"
        networks.save(networks.lattice_fixture_4x4(), netfile)
        out = tmp_path / "ens.json"
        assert run(["decompose", "--network", netfile, "--ensemble", 10,
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert len(data["runs"]) == 10
        assert all(len(r["modes"]) == 4 for r in data["runs"])

    @pytest.mark.parametrize("method", ["svd", "multiscale"])
    def test_ensemble_refuses_other_methods(self, tmp_path, capsys, method):
        out = tmp_path / "ens.json"
        with pytest.raises(SystemExit) as exc:
            run(["decompose", "--fixture", "robot_arm", "--method", method,
                 "--ensemble", 2, "--out", out])
        assert exc.value.code == 2
        assert "SND only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [0, -3])
    def test_ensemble_below_one_is_a_usage_error(self, tmp_path, capsys, size):
        out = tmp_path / "ens.json"
        with pytest.raises(SystemExit) as exc:
            run(["decompose", "--fixture", "robot_arm", "--ensemble", size,
                 "--out", out])
        assert exc.value.code == 2
        assert f"--ensemble must be at least 1, not {size}" in capsys.readouterr().err
        assert not out.exists()

    def test_ensemble_with_snd_method_is_the_default_ensemble(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["--seed", 4, "decompose", "--fixture", "robot_arm",
                    "--method", "snd", "--ensemble", 3, "--out", a]) == 0
        assert run(["--seed", 4, "decompose", "--fixture", "robot_arm",
                    "--ensemble", 3, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert {r["method"] for r in json.loads(a.read_text())["runs"]} == {"SND"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["--seed", 3, "decompose", "--fixture", "robot_arm",
                        "--method", "snd", "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nan_position_is_a_schema_violation(self, tmp_path, capsys):
        netfile = tmp_path / "nan.json"
        netfile.write_text(
            '{"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "fixed": true},'
            ' {"id": 1, "x": 1.0, "y": NaN}, {"id": 2, "x": 0.0, "y": 1.0}],'
            ' "edges": [{"a": 0, "b": 1}, {"a": 1, "b": 2}]}')
        out = tmp_path / "basis.json"
        assert run(["decompose", "--network", netfile, "--out", out]) == 1
        assert "schema-violation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("node, edges", [
        pytest.param('{"id": 1, "x": null, "y": 0.0}', '[{"a": 0, "b": 1}]',
                     id="x-null"),
        pytest.param('{"id": 1, "x": "abc", "y": 0.0}', '[{"a": 0, "b": 1}]',
                     id="x-not-a-number"),
        pytest.param('5', '[{"a": 0, "b": 1}]', id="node-not-an-object"),
        pytest.param('{"id": 1, "x": 1.0, "y": 0.0}', '[{"a": 0, "b": "z"}]',
                     id="edge-end-not-an-id"),
        pytest.param('{"id": 1, "x": 1.0, "y": 0.0}', '7', id="edges-not-a-list"),
        pytest.param('{"id": 1, "x": 1.0, "y": 0.0}',
                     '[{"a": 0, "b": 1, "rest_length": "q"}]',
                     id="rest-length-not-a-number"),
        pytest.param('{"id": 1, "x": 1.0, "y": 0.0, "fixed": "false"}',
                     '[{"a": 0, "b": 1}]', id="fixed-a-string"),
        pytest.param('{"id": 1, "x": 1.0, "y": 0.0}', '[{"a": 0.9, "b": 1}]',
                     id="edge-end-a-float"),
        pytest.param('{"id": 1, "x": 1.0, "y": 0.0}', '[{"a": 0, "b": true}]',
                     id="edge-end-a-bool"),
        pytest.param('{"id": true, "x": 1.0, "y": 0.0}',
                     '[{"a": 0, "b": 1, "rest_length": 1.0}]', id="id-a-bool"),
        pytest.param('{"id": 1, "x": "1.5", "y": 0.0}', '[{"a": 0, "b": 1}]',
                     id="x-a-numeric-string"),
        pytest.param('{"id": 1, "x": 1' + '0' * 400 + ', "y": 0.0}',
                     '[{"a": 0, "b": 1}]', id="x-too-large-for-a-float"),
        pytest.param('{"id": 1, "x": 1.0, "y": 0.0}',
                     '[{"a": 0, "b": 1, "rest_length": "1.0"}]',
                     id="rest-length-a-numeric-string"),
    ])
    def test_malformed_network_is_a_schema_violation(self, tmp_path, capsys,
                                                     node, edges):
        netfile = tmp_path / "net.json"
        netfile.write_text('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "fixed": true}, '
                           f'{node}], "edges": {edges}}}')
        out = tmp_path / "basis.json"
        assert run(["decompose", "--network", netfile, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error [schema-violation]")
        assert list(tmp_path.iterdir()) == [netfile]

    @pytest.mark.parametrize("document, says", [
        pytest.param('[{"id": 0, "x": 0.0, "y": 0.0}]',
                     "top-level value must be an object", id="not-an-object"),
        pytest.param('{"edges": []}', "missing field 'nodes'", id="no-nodes"),
        pytest.param('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0}]}',
                     "missing field 'edges'", id="no-edges"),
        pytest.param('{"nodes": [], "edges": []}',
                     "field 'nodes' must be a non-empty list", id="empty-nodes"),
        pytest.param('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0},'
                     ' {"id": 2, "x": 1.0, "y": 0.0}], "edges": []}',
                     "node id 2 not contiguous from 0", id="id-gap"),
        pytest.param('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0},'
                     ' {"id": 0, "x": 1.0, "y": 0.0}], "edges": []}',
                     "duplicate node id 0", id="id-twice"),
        pytest.param('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0},'
                     ' {"id": 1, "x": 1.0, "y": 0.0}], "edges": [{"a": 0}]}',
                     "edge entry missing field 'b'", id="edge-without-b"),
        pytest.param('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0},'
                     ' {"id": 1, "x": 1.0, "y": 0.0}], "edges": [{"b": 1}]}',
                     "edge entry missing field 'a'", id="edge-without-a"),
        pytest.param('{"nodes": [{"id": 0, "x": 0.0, "y": 0.0}], "edges": [],'
                     ' "metadata": ["nx", 4]}',
                     "field 'metadata' must be an object", id="metadata-a-list"),
    ])
    def test_malformed_document_is_a_schema_violation(self, tmp_path, capsys,
                                                      document, says):
        netfile = tmp_path / "net.json"
        netfile.write_text(document)
        assert run(["decompose", "--network", netfile,
                    "--out", tmp_path / "basis.json"]) == 1
        assert capsys.readouterr().err == f"error [schema-violation]: {says}\n"
        assert list(tmp_path.iterdir()) == [netfile]

    @pytest.mark.parametrize("raw", [pytest.param(b"{nodes", id="not-json"),
                                     pytest.param(b"\xff\xfe{}", id="not-text")])
    def test_unparsable_network_names_its_path(self, tmp_path, capsys, raw):
        netfile = tmp_path / "net.json"
        netfile.write_bytes(raw)
        assert run(["decompose", "--network", netfile,
                    "--out", tmp_path / "basis.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error [schema-violation]: network {netfile} is not valid JSON")
        assert list(tmp_path.iterdir()) == [netfile]

    def test_input_not_mutated(self, tmp_path):
        netfile = tmp_path / "net.json"
        networks.save(networks.fixture("molecule_fixture"), netfile)
        before = netfile.read_bytes()
        run(["decompose", "--network", netfile, "--method", "svd",
             "--out", tmp_path / "b.json"])
        assert netfile.read_bytes() == before

    @pytest.mark.parametrize("method", ["snd", "svd", "multiscale"])
    def test_no_fixed_nodes_warns(self, tmp_path, method):
        netfile = tmp_path / "free.json"
        networks.save(networks.Network(
            [(0.0, 0.0), (1.0, 0.1), (0.4, 0.9)], [(0, 1), (1, 2), (0, 2)]),
            netfile)
        out = tmp_path / "basis.json"
        assert run(["decompose", "--network", netfile, "--method", method,
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["warning"] == ("network has no fixed nodes; "
                                   "basis includes rigid-body motions")
        assert len(data["modes"]) == 3


@pytest.mark.parametrize("package", ["scipy", "networkx"])
def test_import_loads_no_scipy(package):
    # scipy serves only the participation t-test, which imports it itself;
    # networkx serves only the tests, as the oracle of the hinge search
    src = os.path.dirname(os.path.dirname(floppynet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, floppynet, floppynet.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


class TestControlCommand:
    def test_trace_outputs(self, tmp_path):
        arm = networks.fixture("robot_arm")
        task = tmp_path / "task.json"
        task.write_text(json.dumps({
            "effectors": [3, 4],
            "target": [1.0, 2.2],
            "tolerance": 0.1,
            "max_steps": 300,
            "step_size": 0.05,
        }))
        out = tmp_path / "trace.csv"
        assert run(["control", "--fixture", "robot_arm", "--task", task,
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,mode_id,activation,distance,energy"
        assert len(lines) > 1
        summary = json.loads((tmp_path / "trace.csv.json").read_text())
        assert summary["success"] is True

    @pytest.mark.parametrize("text", [
        pytest.param("effectors: [3, 4]", id="not-json"),
        pytest.param('{"target": [1.0, 2.2]}', id="no-effectors"),
        pytest.param('{"effectors": [3, 4]}', id="no-target"),
        pytest.param("[3, 4]", id="not-an-object"),
        pytest.param('{"effectors": [3, 5], "target": [1.0, 2.2]}', id="out-of-range"),
        pytest.param('{"effectors": [-1], "target": [1.0, 2.2]}', id="negative"),
        pytest.param('{"effectors": [0], "target": [1.0, 2.2]}', id="fixed-node"),
        pytest.param('{"effectors": ["x"], "target": [1.0, 2.2]}', id="not-an-id"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2, 3.0]}',
                     id="target-of-three"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "step_size": "0.05"}',
                     id="step-size-a-string"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "step_size": 0}',
                     id="step-size-zero"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "step_size": null}',
                     id="step-size-null"),
        pytest.param('{"effectors": [3.7], "target": [1.0, 2.2]}', id="effector-a-float"),
        pytest.param('{"effectors": [true], "target": [1.0, 2.2]}', id="effector-a-bool"),
        pytest.param('{"effectors": [3, 4], "target": ["1.0", "2.2"]}',
                     id="target-strings"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "max_steps": 2.5}',
                     id="max-steps-a-float"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "tolerance": "0.1"}',
                     id="tolerance-a-string"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "tolerance": NaN}',
                     id="tolerance-nan"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "tolerance": Infinity}',
                     id="tolerance-infinite"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "tolerance": 0}',
                     id="tolerance-zero"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "max_steps": 0}',
                     id="max-steps-zero"),
        pytest.param('{"effectors": [3, 4], "target": [1.0, 2.2], "max_steps": -3}',
                     id="max-steps-negative"),
    ])
    def test_malformed_task_is_a_schema_violation(self, tmp_path, capsys, text):
        task = tmp_path / "task.json"
        task.write_text(text)
        out = tmp_path / "trace.csv"
        assert run(["control", "--fixture", "robot_arm", "--task", task,
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [schema-violation]")
        assert f"task {task}" in err
        assert list(tmp_path.iterdir()) == [task]


class TestSimulateCommand:
    def test_shear_json(self, tmp_path):
        netfile = tmp_path / "net.json"
        spec = networks.GeneratorSpec(kind="triangular_lattice", dimensions=(4, 4))
        networks.save(networks.generate_triangular(spec), netfile)
        out = tmp_path / "sim.json"
        assert run(["simulate", "--network", netfile, "--protocol",
                    "shear_top_row", "--steps", 2000, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["G"] > 0
        assert len(data["per_edge"]) == 33


    @pytest.mark.parametrize("args,says", [
        pytest.param(["--noise", "nan"], "noise_amplitude must be non-negative "
                     "and finite, not nan", id="noise-nan"),
        pytest.param(["--noise", "inf"], "noise_amplitude must be non-negative "
                     "and finite, not inf", id="noise-inf"),
        pytest.param(["--dt", "nan"], "dt must be positive and finite, not nan",
                     id="dt-nan"),
        pytest.param(["--dt", "inf"], "dt must be positive and finite, not inf",
                     id="dt-inf"),
        pytest.param(["--gamma", "nan", "--protocol", "shear_top_row"],
                     "strain must be finite, not nan", id="gamma-nan"),
        pytest.param(["--gamma", 0, "--protocol", "shear_top_row"],
                     "strain must be non-zero to measure a shear modulus, not 0.0",
                     id="gamma-0"),
    ])
    def test_bad_parameter_on_a_lattice(self, tmp_path, capsys, args, says):
        netfile = tmp_path / "net.json"
        networks.save(networks.generate_triangular(networks.GeneratorSpec(
            kind="triangular_lattice", dimensions=(5, 5), boundary="fixed_rows")),
            netfile)
        out = tmp_path / "sim.json"
        assert run(["simulate", "--network", netfile, "--steps", 1000, *args,
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"error [bad-parameter]: {says}\n"
        assert not out.exists()


class TestRigidifyCommand:
    def test_ms_on_a_network_snd_finds_rigid(self, tmp_path, near_degenerate_chain):
        # SND builds no mode, so the one MS pick falls back to a random link
        net, out = tmp_path / "chain.json", tmp_path / "curve.csv"
        networks.save(near_degenerate_chain, net)
        assert run(["rigidify", "--network", net, "--protocol", "ms",
                    "--steps", 200, "--out", out]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "step,added_a,added_b,edge_count,G"
        assert rows[2].startswith("1,1,3,3,")

    def test_lattice_without_size_metadata(self, tmp_path):
        # the lattice size comes from the geometry, so a file without the
        # nx/ny metadata tunes exactly as the generated one
        full, bare = tmp_path / "full.json", tmp_path / "bare.json"
        assert run(["--seed", 5, "generate", "--kind", "triangular_lattice",
                    "--nx", 5, "--ny", 5, "--dilution", 0.6, "--boundary",
                    "fixed_rows", "--out", full]) == 0
        data = json.loads(full.read_text())
        del data["metadata"]["nx"], data["metadata"]["ny"]
        bare.write_text(json.dumps(data))
        for net in (full, bare):
            assert run(["--seed", 6, "rigidify", "--network", net, "--protocol",
                        "ms", "--stop-at", 2, "--steps", 300,
                        "--out", net.with_suffix(".csv")]) == 0
        assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


class TestPredictCommand:
    def test_prediction_and_scoring(self, tmp_path):
        netfile = tmp_path / "net.json"
        spec = networks.GeneratorSpec(kind="bidisperse_packing", seed=1,
                                      n_disks=36, target_dof=12)
        net = networks.generate_bidisperse_packing(spec)
        networks.save(net, netfile)
        ext = tmp_path / "ext.csv"
        rows = ["edge_a,edge_b,extension"]
        rng = np.random.default_rng(0)
        for e in net.edges:
            rows.append(f"{e.a},{e.b},{rng.uniform(0, 0.01):.6f}")
        ext.write_text("\n".join(rows) + "\n")
        out = tmp_path / "pred.json"
        assert run(["predict", "--network", netfile, "--m", 10,
                    "--extensions", ext, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert set(data) >= {"eligible_nodes", "predicted_edges", "params"}
        scores = (tmp_path / "pred.json.scores.csv").read_text().splitlines()
        assert scores[0] == "e,eta"
        assert len(scores) > 2

    @pytest.mark.parametrize("text", [
        pytest.param("edge_a,edge_b\n0,1\n", id="no-extension-column"),
        pytest.param("edge_a,edge_b,extension\n0,1,wide\n", id="not-a-number"),
        pytest.param("edge_a,edge_b,extension\n", id="no-rows"),
    ])
    def test_bad_extensions_write_nothing(self, tmp_path, capsys, text):
        ext = tmp_path / "ext.csv"
        ext.write_text(text)
        out = tmp_path / "pred.json"
        assert run(["predict", "--fixture", "robot_arm", "--m", 2,
                    "--extensions", ext, "--out", out]) == 1
        assert "error [schema-violation]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [ext]

    def test_extensions_naming_no_edge_write_nothing(self, tmp_path, capsys):
        # (0, 9) is no edge of the 5-node arm; counted, it read as max eta 1.0
        ext = tmp_path / "ext.csv"
        ext.write_text("edge_a,edge_b,extension\n0,9,0.1\n")
        out = tmp_path / "pred.json"
        assert run(["predict", "--fixture", "robot_arm", "--m", 2,
                    "--extensions", ext, "--out", out]) == 1
        err = capsys.readouterr()
        assert "error [schema-violation]" in err.err
        assert "(0, 9) is not an edge" in err.err
        assert "max eta" not in err.out
        assert list(tmp_path.iterdir()) == [ext]

    def test_extensions_missing_a_predicted_edge_write_nothing(self, tmp_path, capsys):
        netfile = tmp_path / "net.json"
        net = networks.generate_bidisperse_packing(networks.GeneratorSpec(
            kind="bidisperse_packing", seed=1, n_disks=36, target_dof=12))
        networks.save(net, netfile)
        ext = tmp_path / "ext.csv"
        ext.write_text(f"edge_a,edge_b,extension\n{net.edges[0].a},{net.edges[0].b},0.1\n")
        out = tmp_path / "pred.json"
        assert run(["predict", "--network", netfile, "--m", 10,
                    "--extensions", ext, "--out", out]) == 1
        assert "error [edge-mismatch]" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [ext, netfile]


class TestRenderCommand:
    def test_mode_overlay(self, tmp_path):
        basis = tmp_path / "basis.json"
        run(["decompose", "--fixture", "robot_arm", "--method", "snd",
             "--out", basis])
        out = tmp_path / "arm.svg"
        assert run(["render", "--fixture", "robot_arm", "--overlay", "mode:0",
                    "--basis", basis, "--out", out]) == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg
        assert svg.count("<circle") == 4       # free nodes
        assert svg.count("<rect") >= 1         # background + fixed node

    @pytest.mark.parametrize("k", ["4", "-1", "x"])
    def test_mode_past_the_basis(self, tmp_path, capsys, k):
        basis = tmp_path / "basis.json"
        run(["decompose", "--fixture", "robot_arm", "--method", "snd",
             "--out", basis])
        out = tmp_path / "arm.svg"
        assert run(["render", "--fixture", "robot_arm", "--overlay", f"mode:{k}",
                    "--basis", basis, "--out", out]) == 1
        assert "error [schema-violation]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overlay, option", [
        ("mode:0", "--basis"),
        ("globality", "--prediction"),
        ("prediction", "--prediction"),
        ("extensions", "--sim"),
    ])
    def test_overlay_without_its_file_is_a_usage_error(self, tmp_path, capsys,
                                                       overlay, option):
        out = tmp_path / "arm.svg"
        with pytest.raises(SystemExit) as exc:
            run(["render", "--fixture", "robot_arm", "--overlay", overlay,
                 "--out", out])
        assert exc.value.code == 2
        assert f"needs {option}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overlay, option, text, says", [
        pytest.param("globality", "--prediction", '{"predicted_edges": []}',
                     "has no key 'globality'", id="globality"),
        pytest.param("extensions", "--sim", '{"E": 0.0}', "has no key 'per_edge'",
                     id="extensions"),
        pytest.param("prediction", "--prediction", '{"globality": {}}',
                     "has no key 'predicted_edges'", id="prediction"),
        pytest.param("mode:0", "--basis", "[]", "has no key 'modes'", id="mode-list"),
        pytest.param("extensions", "--sim", '{"per_edge": [{"a": 0}]}',
                     "holds a malformed entry", id="extensions-entry"),
        pytest.param("mode:0", "--basis", '{"modes": [{"size": 2}]}',
                     "holds a malformed entry", id="mode-without-entries"),
        pytest.param("globality", "--prediction", '{"globality": {"0": "high"}}',
                     "holds a malformed entry", id="globality-value"),
        pytest.param("mode:0", "--basis", '{"modes": [{"entries": [[-1, 1.0]]}]}',
                     "holds a malformed entry", id="mode-negative-coordinate"),
        pytest.param("mode:0", "--basis", '{"modes": [{"entries": [[2.7, 1.0]]}]}',
                     "holds a malformed entry: coordinate 2.7 is not a JSON integer",
                     id="mode-coordinate-a-float"),
        pytest.param("globality", "--prediction", '{"globality": {"0": true}}',
                     "holds a malformed entry: value True is not a JSON number",
                     id="globality-value-a-bool"),
        pytest.param("prediction", "--prediction", '{"predicted_edges": [[0.9, 1]]}',
                     "holds a malformed entry: edge end 0.9 is not a JSON integer",
                     id="predicted-edge-end-a-float"),
        pytest.param("extensions", "--sim",
                     '{"per_edge": [{"a": 0, "b": 1, "scaled_extension": "0.3"}]}',
                     "holds a malformed entry: scaled_extension '0.3' is not a JSON number",
                     id="scaled-extension-a-string"),
    ])
    def test_overlay_file_without_its_key_is_a_schema_violation(
            self, tmp_path, capsys, overlay, option, text, says):
        data = tmp_path / "in.json"
        data.write_text(text)
        out = tmp_path / "arm.svg"
        assert run(["render", "--fixture", "robot_arm", "--overlay", overlay,
                    option, data, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [schema-violation]")
        assert f"{data} {says}" in err
        assert list(tmp_path.iterdir()) == [data]

    def test_unknown_overlay(self, tmp_path):
        assert run(["render", "--fixture", "robot_arm", "--overlay", "zorp",
                    "--out", tmp_path / "x.svg"]) == 1

    def test_arrow_lengths_track_magnitudes(self):
        net = networks.fixture("robot_arm")
        v = np.zeros(net.n_coords)
        v[6], v[8] = 0.2, 0.9
        svg = render.render_network(net, mode_vector=v)
        assert svg.count("stroke=\"#2e8b57\"") == 6  # two arrows, three lines each


class TestCompareCommand:
    def test_participation_summary(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["compare", "--experiment", "participation", "--n", 20,
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["mean_P_snd"] < data["mean_P_svd"]
        assert 0 <= data["p_value"] <= 1

    def test_energy_one_pair(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["--seed", 1, "compare", "--experiment", "energy", "--n", 1,
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert (data["pairs_completed"], data["attempts"]) == (1, 1)
        assert len(data["energies"]) == 1

    @pytest.mark.parametrize("experiment", ["participation", "involvement",
                                            "energy"])
    def test_method_refused_outside_grasping(self, tmp_path, capsys, experiment):
        out = tmp_path / "cmp.json"
        with pytest.raises(SystemExit) as exc:
            run(["--seed", 1, "compare", "--experiment", experiment,
                 "--method", "SVD", "--n", 2, "--out", out])
        assert exc.value.code == 2
        assert "grasping only" in capsys.readouterr().err
        assert not out.exists()


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run(["generate", "--kind", "robot_arm", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error [io]: [Errno 2] ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, says", [
    pytest.param(["predict", "--fixture", "robot_arm", "--m", 0], "ensemble size",
                 id="predict-m-0"),
    pytest.param(["compare", "--experiment", "participation", "--n", 0],
                 "ensemble size", id="participation-n-0"),
    pytest.param(["compare", "--experiment", "involvement", "--n", 0],
                 "ensemble size", id="involvement-n-0"),
    pytest.param(["simulate", "--fixture", "robot_arm", "--steps", 0], "steps",
                 id="simulate-steps-0"),
    pytest.param(["simulate", "--fixture", "robot_arm", "--dt", 0], "dt",
                 id="simulate-dt-0"),
    pytest.param(["simulate", "--fixture", "robot_arm", "--noise", -1],
                 "noise_amplitude", id="simulate-noise-negative"),
    pytest.param(["rigidify", "--fixture", "robot_arm", "--protocol", "ms",
                  "--steps", 0], "steps", id="rigidify-steps-0"),
    pytest.param(["compare", "--experiment", "grasping", "--method", "snd"],
                 "unknown basis method 'snd'", id="grasping-method-snd"),
])
def test_rejected_parameter_is_reported_not_raised(tmp_path, capsys, args, says):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [bad-parameter]: ")
    assert says in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    pytest.param(["generate", "--kind", "triangular_lattice", "--dilution", 0.6],
                 id="generate"),
    pytest.param(["simulate", "--fixture", "robot_arm", "--steps", 10], id="simulate"),
    pytest.param(["predict", "--fixture", "robot_arm", "--m", 2], id="predict"),
    pytest.param(["decompose", "--fixture", "robot_arm", "--method", "snd"],
                 id="decompose-snd"),
    pytest.param(["decompose", "--fixture", "robot_arm", "--method", "multiscale"],
                 id="decompose-multiscale"),
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["--seed", -1, *args, "--out", out])
    assert exc.value.code == 2
    assert "--seed must be at least 0, not -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _run_cli_corpus(d):
    """Run every subcommand once on small inputs in ``d``; SHA-256 of each output."""
    lat, pack = d / "lat.json", d / "pack.json"
    commands = [
        ["--seed", 5, "generate", "--kind", "triangular_lattice", "--nx", 5,
         "--ny", 5, "--dilution", 0.6, "--boundary", "fixed_rows", "--out", lat],
        ["--seed", 1, "generate", "--kind", "bidisperse_packing", "--n-disks", 30,
         "--target-dof", 8, "--out", pack],
        *[["--seed", 2, "decompose", "--network", lat, "--method", m,
           "--out", d / f"{m}.json"] for m in ("snd", "svd", "multiscale")],
        ["--seed", 3, "decompose", "--network", pack, "--ensemble", 3,
         "--out", d / "ens.json"],
        *[["control", "--fixture", "robot_arm", "--task", d / f"task-{m}.json",
           "--out", d / f"trace-{m}.csv"] for m in ("SND", "multiscale")],
        *[["--seed", 4, "simulate", "--network", net, "--protocol", p,
           "--steps", 300, "--out", d / f"sim-{p}.json"]
          for net, p in ((lat, "none"), (lat, "shear_top_row"),
                         (pack, "radial_stretch"))],
        ["--seed", 6, "rigidify", "--network", lat, "--protocol", "ms",
         "--stop-at", 2, "--steps", 300, "--out", d / "curve.csv"],
    ]
    for method in ("SND", "multiscale"):
        (d / f"task-{method}.json").write_text(json.dumps({
            "effectors": [3, 4], "target": [1.0, 2.2], "tolerance": 0.1,
            "max_steps": 300, "step_size": 0.05, "basis_method": method}))
    for args in commands:
        assert run(args) == 0, args
    rows = json.loads((d / "sim-radial_stretch.json").read_text())["per_edge"]
    (d / "ext.csv").write_text("edge_a,edge_b,extension\n" + "".join(
        f"{r['a']},{r['b']},{r['extension']!r}\n" for r in rows))
    commands = [
        ["--seed", 7, "predict", "--network", pack, "--m", 4,
         "--extensions", d / "ext.csv", "--out", d / "pred.json"],
        ["render", "--network", lat, "--out", d / "none.svg"],
        ["render", "--network", lat, "--overlay", "mode:0", "--basis",
         d / "snd.json", "--out", d / "mode.svg"],
        ["render", "--network", pack, "--overlay", "mode:1", "--basis",
         d / "ens.json", "--bounds", 0, 0.5, "--out", d / "mode-ens.svg"],
        ["render", "--network", pack, "--overlay", "globality",
         "--prediction", d / "pred.json", "--out", d / "glob.svg"],
        ["render", "--network", pack, "--overlay", "prediction",
         "--prediction", d / "pred.json", "--out", d / "pred.svg"],
        ["render", "--network", pack, "--overlay", "extensions",
         "--sim", d / "sim-radial_stretch.json", "--out", d / "ext.svg"],
        ["--seed", 8, "compare", "--experiment", "grasping", "--n", 1,
         "--out", d / "grasp.json"],
        ["--seed", 9, "compare", "--experiment", "involvement", "--n", 3,
         "--out", d / "inv.json"],
    ]
    for args in commands:
        assert run(args) == 0, args
    inputs = {"task-SND.json", "task-multiscale.json", "ext.csv"}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.name not in inputs}


# SHA-256 of every output of ``_run_cli_corpus``, recorded before the CLI
# read its files through ``networks.read_json``; each must stay byte-identical.
PINNED_CLI_OUTPUTS = {
    "curve.csv":
        "a3f98d4c198bfad609eb5ab55ca83bb3efb36377e694792fd3c4a6a3b4a81d16",
    "ens.json":
        "eabaf47a06dec8604631b6ed5a1aa79154b48e1241ea93bb80de75b353a61a88",
    "ext.svg":
        "b16bc30b2a09f49f4a44d009d200f9a2c5d4d4f23c53a42e086ef3fa8b59e1ca",
    "glob.svg":
        "9bf583ac71952a25d740e3b176634d63d112613d12a18632342c9cd4104d90db",
    "grasp.json":
        "eadef1cf744ca234f53c011ca6347ed979fac8e7f9b4af558dbcac862bc7cdc4",
    "inv.json":
        "98524fc5274431a2402048e66b0cfd3f1165ea254e0b1d3a3402b02c587aef06",
    "lat.json":
        "f97e7a8edf19624fdfa626ea6410d6b921bd5fda8b715591361b4b9728642fba",
    "mode-ens.svg":
        "a7269d3fc578a91f9eccf9286e5d3d9741a99fde7a6870efdac4e818989672ff",
    "mode.svg":
        "e7bb1c4b0fb033b5ab965ad79a23c44791664802b915e94ecfbec8ef37d405a5",
    "multiscale.json":
        "5017cc7e6756a972597a9323b523aceef0237ce6eda3f2a36d2e70e7c24d7598",
    "none.svg":
        "b95baec0e08cd69601c5a68d7f8ae62e1f496830e6cf0ce63a50957c450046f4",
    "pack.json":
        "d71bd81f04b5c06b9523d038ece41a87502990eb39d04f23a0ee5211ab8f8130",
    "pred.json":
        "251cd5b1d8267d0dbe0648144fda0d2c23b8574dd4fecd6e315ec00f110a7f42",
    "pred.json.scores.csv":
        "132a9a6107892ef33a10343f8b0c7579b308d0c011853b0f1b5d1ede1a846f3f",
    "pred.svg":
        "efb308f442d54d2bc9d9be52dc8129c551abd09c03da8a8225c10f18545db53b",
    "sim-none.json":
        "06320ff3d97a0e705e2850cc613a46866e143c26af941e3a4403e9bcbc00cbf4",
    "sim-radial_stretch.json":
        "4cf0c162a49bc399b4b1358331baf5bef8b842c9c3d808a75ef52ea8e743f0f6",
    "sim-shear_top_row.json":
        "dd830bc4b93f4a0761db188b51472131e5da8ed1110f784c6c057485fe32e993",
    "snd.json":
        "d270cd80617d444c66488f2284c174e7bfba024f55c6bfa49e2bada54550655f",
    "svd.json":
        "7c5f4d6d15da6a44e6557f1b09e4adacb88682f64b04d95ed7599553679a6e41",
    "trace-SND.csv":
        "688b21be72aafc2e0535c52eb22d61d617ac6e797675d445e5f9e77593f9b29b",
    "trace-SND.csv.json":
        "5aabaabec8b1c5e2335c87f684acf599ed176a5242a45532c616603389b419d7",
    "trace-multiscale.csv":
        "c9a9774ac3356012a4db9cfa8352d4151636e60f32cd117adc1e86ca7f249c72",
    "trace-multiscale.csv.json":
        "dc967cd294cf1310e9918ecbd2127df4ab9471ead11bd59b7b47f701b9060535",
}


@pytest.mark.pins
def test_cli_outputs_pinned(tmp_path, capsys):
    assert _run_cli_corpus(tmp_path) == PINNED_CLI_OUTPUTS
