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
        networks.save(networks.build_network(
            [(0.0, 0.0), (1.0, 0.1), (0.4, 0.9)], [(0, 1), (1, 2), (0, 2)]),
            netfile)
        out = tmp_path / "basis.json"
        assert run(["decompose", "--network", netfile, "--method", method,
                    "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["warning"] == ("network has no fixed nodes; "
                                   "basis includes rigid-body motions")
        assert len(data["modes"]) == 3


def test_import_loads_no_scipy():
    # scipy serves only the participation t-test, which imports it itself
    src = os.path.dirname(os.path.dirname(floppynet.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, floppynet, floppynet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
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
