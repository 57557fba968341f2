"""Command-line interface.

Subcommands wrap one module pipeline each: generate, decompose, control,
simulate, rigidify, predict, render, and compare.  Exit codes: 0 on
success, 1 on a domain error, 2 on a usage error.  All randomness is
seeded; rerunning a command with the same seed reproduces its outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import (control, experiments, loadpredict, multiscale, networks,
               nullspace, render, rigidify, rigidity, springsim)
from .errors import FloppyNetError, SchemaError
from .networks import json_int, json_number


def _read_key(path, what, key, data=None):
    """``data[key]``, ``data`` read from ``path`` if not given; SchemaError if missing."""
    if data is None:
        data = networks.read_json(path, what)
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(f"{what} {path} has no key '{key}'")
    return data[key]


def _load_network(args) -> networks.Network:
    if args.fixture is not None:
        return networks.fixture(args.fixture)
    return networks.load(args.network)


def cmd_generate(args) -> None:
    spec = networks.GeneratorSpec(
        kind=args.kind, dimensions=(args.nx, args.ny),
        dilution_fraction=args.dilution, seed=args.seed,
        boundary=args.boundary, n_disks=args.n_disks,
        target_dof=args.target_dof)
    networks.save(networks.generate(spec), args.out)


def cmd_decompose(args) -> None:
    net = _load_network(args)
    R = rigidity.build(net)
    if args.ensemble > 1:
        bases = nullspace.ensemble(R, m=args.ensemble, base_seed=args.seed)
        participation = [b.participation for b in bases]
        data = {
            "runs": [nullspace.basis_to_dict(b) for b in bases],
            "participation": participation,
            "mean_participation": float(np.mean(participation)),
        }
    else:
        if args.method == "snd":
            basis = nullspace.snd_basis(R, shuffle_seed=args.seed)
        elif args.method == "svd":
            basis = nullspace.svd_basis(R)
        else:
            basis = multiscale.multiscale_basis(net, seed=args.seed)
        data = nullspace.basis_to_dict(basis)
    if not net.fixed.any():
        data["warning"] = "network has no fixed nodes; basis includes rigid-body motions"
    networks.write_json(data, args.out)


#: JSON type of each optional task number; one left out takes the ControlTask default.
_TASK_NUMBERS = {"tolerance": json_number, "max_steps": json_int,
                 "step_size": json_number}


def _load_task(path, net: networks.Network, seed: int) -> control.ControlTask:
    """The task spec at ``path`` on ``net``; a malformed spec is a SchemaError."""
    spec = networks.read_json(path, "task")
    if not isinstance(spec, dict) or not {"effectors", "target"} <= spec.keys():
        raise SchemaError(f"task {path} needs 'effectors' and 'target'")
    try:
        return control.ControlTask(
            net, effectors=[json_int(e, "effector") for e in spec["effectors"]],
            target=[json_number(x, "target coordinate") for x in spec["target"]],
            basis_method=spec.get("basis_method", "SND"), seed=seed,
            **{k: read(spec[k], k) for k, read in _TASK_NUMBERS.items() if k in spec})
    except (SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"task {path}: {exc}") from exc


def cmd_control(args) -> None:
    net = _load_network(args)
    trace = control.run_task(_load_task(args.task, net, args.seed))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mode_id", "activation", "distance", "energy"])
        for r in trace.records:
            writer.writerow([r.step, r.mode_id, "%.12g" % r.activation,
                             "%.12g" % r.distance, "%.12g" % r.energy])
    summary = {
        "success": trace.success,
        "steps": len(trace.records),
        "total_energy": trace.total_energy,
        "activation_times": {str(k): v for k, v in trace.activation_times.items()},
        "recanonicalized_at": trace.recanonicalized_at,
    }
    networks.write_json(summary, args.out + ".json")


def cmd_simulate(args) -> None:
    net = _load_network(args)
    config = springsim.SimConfig(steps=args.steps, dt=args.dt,
                                 noise_amplitude=args.noise, seed=args.seed,
                                 strain=args.gamma)
    if args.protocol == "shear_top_row":
        result = springsim.shear_modulus(net, config)
    elif args.protocol == "radial_stretch":
        result = springsim.radial_stretch(net, config)
    else:
        result = springsim.relax(net, config)
    a, b, _ = net.edge_arrays()
    data = {
        "E": result.energy,
        "noise_floor_flagged": result.noise_floor_flagged,
        "per_edge": [
            {"a": int(x), "b": int(y), "extension": float(ext),
             "scaled_extension": float(sc)}
            for x, y, ext, sc in zip(a, b, result.per_edge_extension,
                                     result.scaled_extension)],
        "positions": [[float(p[0]), float(p[1])] for p in result.positions],
    }
    if result.shear_modulus is not None:
        data["G"] = result.shear_modulus
    networks.write_json(data, args.out)


def cmd_rigidify(args) -> None:
    net = _load_network(args)
    config = springsim.SimConfig(steps=args.steps)
    protocol = {"ms": "MS", "random": "random"}[args.protocol]
    run = rigidify.tune(net, protocol, seed=args.seed, stop_at=args.stop_at,
                        config=config)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "added_a", "added_b", "edge_count", "G"])
        writer.writerow([0, "", "", run.g_curve[0][0], "%.12g" % run.g_curve[0][1]])
        for k, (link, (count, g)) in enumerate(
                zip(run.link_sequence, run.g_curve[1:]), start=1):
            writer.writerow([k, link[0], link[1], count, "%.12g" % g])


def _read_extensions(path, net: networks.Network) -> dict[tuple[int, int], float]:
    """Extensions by edge, from the ``edge_a,edge_b,extension`` columns of a CSV.

    A row naming a pair that is not an edge of ``net`` is a SchemaError.
    """
    columns = ("edge_a", "edge_b", "extension")
    edges = net.edge_set()
    extensions = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise SchemaError(f"extensions {path} lacks column(s) {', '.join(missing)}")
        for row in reader:
            try:
                key = (int(row["edge_a"]), int(row["edge_b"]))
                extensions[tuple(sorted(key))] = float(row["extension"])
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"extensions {path} line {reader.line_num}: {exc}") from exc
            if tuple(sorted(key)) not in edges:
                raise SchemaError(f"extensions {path} line {reader.line_num}: "
                                  f"{key} is not an edge of the network")
    if not extensions:
        raise SchemaError(f"extensions {path} holds no rows")
    return extensions


def cmd_predict(args) -> None:
    net = _load_network(args)
    # read the extensions first, so a malformed file writes nothing
    extensions = _read_extensions(args.extensions, net) if args.extensions else None
    gmap = loadpredict.globality(net, m=args.m, base_seed=args.seed)
    predicted = loadpredict.predict_loaded_edges(net, gmap, t=args.t,
                                                 mark_all_ties=args.all_ties)
    data = {
        "eligible_nodes": sorted(loadpredict.eligible_nodes(net, gmap, args.t)),
        "predicted_edges": sorted([list(e) for e in predicted]),
        "globality": {str(k): v for k, v in gmap.f.items()},
        "rigid_nodes": sorted(gmap.rigid_nodes),
        "params": {"t": args.t, "m": args.m, "seed": args.seed},
    }
    if extensions is not None:
        # scored before anything is written, so measurements that miss a
        # predicted edge write nothing either
        grid = sorted({abs(v) for v in extensions.values()})
        curve, best_e, best_eta = loadpredict.threshold_sweep(
            predicted, extensions, grid, args.t)
    networks.write_json(data, args.out)
    if extensions is not None:
        with open(args.out + ".scores.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["e", "eta"])
            for e, eta in curve:
                writer.writerow(["%.12g" % e, "%.12g" % eta])
        print(f"max eta {best_eta:.4f} at e {best_e:.6g}")


def cmd_render(args) -> None:
    net = _load_network(args)
    kwargs = {}
    overlay = args.overlay
    # the file the overlay reads (a mode:K overlay reads --basis)
    path = getattr(args, _OVERLAY_INPUTS.get(overlay, "basis"))
    malformed = f"overlay {overlay}: {path} holds a malformed entry"
    end = f"{malformed}: edge end"
    try:
        if overlay.startswith("mode:"):
            basis = networks.read_json(args.basis, "basis")
            runs = basis.get("runs") if isinstance(basis, dict) else None
            modes = _read_key(args.basis, "basis", "modes", runs[0] if runs else basis)
            index = overlay.split(":", 1)[1]
            if not index.isdigit() or int(index) >= len(modes):
                raise SchemaError(f"overlay {overlay}: {path} holds modes "
                                  f"0 to {len(modes) - 1}")
            v = np.zeros(net.n_coords)
            for coord, value in modes[int(index)]["entries"]:
                coord = json_int(coord, f"{malformed}: coordinate")
                if coord < 0:
                    raise IndexError(f"coordinate {coord} is negative")
                v[coord] = json_number(value, f"{malformed}: value")
            kwargs["mode_vector"] = v
        elif overlay == "globality":
            values = _read_key(args.prediction, "prediction", "globality")
            # JSON object keys are strings
            kwargs["node_values"] = {int(k): json_number(v, f"{malformed}: value")
                                     for k, v in values.items()}
        elif overlay == "extensions":
            rows = _read_key(args.sim, "simulation", "per_edge")
            kwargs["edge_values"] = {
                (json_int(r["a"], end), json_int(r["b"], end)):
                json_number(r["scaled_extension"], f"{malformed}: scaled_extension")
                for r in rows}
        elif overlay == "prediction":
            edges = _read_key(args.prediction, "prediction", "predicted_edges")
            kwargs["marked_edges"] = {(json_int(a, end), json_int(b, end))
                                      for a, b in edges}
        elif overlay != "none":
            raise FloppyNetError(f"unknown overlay {overlay!r}")
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # read before anything is written, so a malformed file writes nothing
        raise SchemaError(f"{malformed} ({exc!r})") from exc
    if args.bounds:
        kwargs["colour_bounds"] = tuple(args.bounds)
    render.save_svg(render.render_network(net, **kwargs), args.out)


def cmd_compare(args) -> None:
    if args.experiment == "participation":
        net = networks.lattice_fixture_4x4()
        data = experiments.participation_comparison(net, args.n, args.seed)
    elif args.experiment == "involvement":
        net = networks.hinged_fixture()
        data = experiments.involvement_comparison(net, args.n, args.seed)
    elif args.experiment == "grasping":
        data = experiments.grasping_experiment(args.n, args.seed, args.method)
        data["mean_first_activation"] = {
            str(k): v for k, v in data["mean_first_activation"].items()}
    elif args.experiment == "energy":
        data = experiments.reaching_energy_comparison(n_pairs=args.n,
                                                      base_seed=args.seed)
        data["energies"] = [[float(a), float(b)] for a, b in data["energies"]]
    else:
        raise FloppyNetError(f"unknown experiment {args.experiment!r}")
    networks.write_json(data, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floppynet",
        description="Floppy-mode analysis and control of 2D networks")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    # the network a subcommand reads: a JSON file or a named fixture
    net_args = argparse.ArgumentParser(add_help=False)
    source = net_args.add_mutually_exclusive_group(required=True)
    source.add_argument("--network")
    source.add_argument("--fixture")

    p = sub.add_parser("generate", help="procedurally generate a network")
    p.add_argument("--kind", required=True,
                   choices=["triangular_lattice", "bidisperse_packing",
                            "robot_arm", "molecule_fixture"])
    p.add_argument("--nx", type=int, default=4)
    p.add_argument("--ny", type=int, default=4)
    p.add_argument("--dilution", type=float, default=None)
    p.add_argument("--boundary", default="open")
    p.add_argument("--n-disks", type=int, default=48)
    p.add_argument("--target-dof", type=int, default=18)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", parents=[net_args], help="compute a floppy-mode basis")
    p.add_argument("--method", default="snd",
                   choices=["snd", "svd", "multiscale"])
    p.add_argument("--ensemble", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("control", parents=[net_args], help="run a reaching/grasping task")
    p.add_argument("--task", required=True, help="task spec JSON")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("simulate", parents=[net_args], help="relax a spring network")
    p.add_argument("--protocol", default="none",
                   choices=["none", "shear_top_row", "radial_stretch"])
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--noise", type=float, default=1e-4)
    p.add_argument("--gamma", type=float, default=0.08)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rigidify", parents=[net_args], help="sequential stiffness tuning")
    p.add_argument("--protocol", required=True, choices=["ms", "random"])
    p.add_argument("--stop-at", type=int, default=None)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_rigidify)

    p = sub.add_parser("predict", parents=[net_args], help="predict load-bearing links")
    p.add_argument("--m", type=int, default=loadpredict.DEFAULT_ENSEMBLE)
    p.add_argument("--t", type=float, default=loadpredict.DEFAULT_THRESHOLD)
    p.add_argument("--all-ties", action="store_true")
    p.add_argument("--extensions", help="CSV (edge_a, edge_b, extension)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("render", parents=[net_args], help="render a network to SVG")
    p.add_argument("--overlay", default="none",
                   help="none | mode:K | globality | extensions | prediction")
    p.add_argument("--basis", help="basis JSON (mode overlay)")
    p.add_argument("--sim", help="simulation JSON (extensions overlay)")
    p.add_argument("--prediction", help="prediction JSON")
    p.add_argument("--bounds", type=float, nargs=2, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="paired sparse-vs-SVD experiments")
    p.add_argument("--experiment", required=True,
                   choices=["participation", "involvement", "grasping",
                            "energy"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--method", default="multiscale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


#: The file option each ``render`` overlay reads (``mode:K`` reads ``basis``).
_OVERLAY_INPUTS = {"globality": "prediction", "prediction": "prediction",
                   "extensions": "sim"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_decompose and args.ensemble > 1 and args.method != "snd":
        parser.error(f"decompose --ensemble runs SND only, not --method {args.method}")
    if args.func is cmd_render:
        option = ("basis" if args.overlay.startswith("mode:")
                  else _OVERLAY_INPUTS.get(args.overlay))
        if option is not None and getattr(args, option) is None:
            parser.error(f"render --overlay {args.overlay} needs --{option}")
    try:
        args.func(args)
    except FloppyNetError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
