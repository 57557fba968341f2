"""Paired experiments comparing sparse and dense mode bases.

These drive the ``compare`` CLI subcommand and the acceptance checks:
participation statistics on the demo lattice, grasping-cascade activation
times, reaching energy costs, single-link rigidification gains, sequential
tuning curves, and load-prediction matching ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import control, loadpredict, networks, nullspace, rigidify, rigidity, springsim
from .networks import GeneratorSpec, Network
from .springsim import SimConfig


# -- participation and involvement (demo lattice) ---------------------------

def participation_comparison(network: Network, n_shuffles: int = 100,
                             base_seed: int = 0) -> dict:
    """Participation rates of shuffled sparse bases against the SVD baseline.

    The one-sided paired test asks whether the sparse participation rate is
    lower; with zero variance in the differences the p-value degenerates to
    0 or 1 by the sign of the mean.
    """
    R = rigidity.build(network)
    p_snd = np.array([b.participation for b in
                      nullspace.ensemble(R, m=n_shuffles, base_seed=base_seed)])
    p_svd = nullspace.svd_basis(R).participation
    diffs = p_snd - p_svd
    if np.ptp(diffs) == 0:
        p_value = 0.0 if diffs.mean() < 0 else 1.0
    else:
        import scipy.stats  # deferred: scipy serves only this t-test
        p_value = float(scipy.stats.ttest_1samp(
            diffs, 0.0, alternative="less").pvalue)
    return {
        "mean_P_snd": float(p_snd.mean()),
        "mean_P_svd": float(p_svd),
        "p_value": p_value,
        "P_snd": [int(p) for p in p_snd],
    }


def involvement_comparison(network: Network, n_shuffles: int = 100,
                           base_seed: int = 0) -> dict:
    """Mean per-node mode involvement for sparse vs SVD bases."""
    R = rigidity.build(network)
    q_snd = np.mean([
        np.mean(list(nullspace.involvement_Q(b, network.n_nodes).values()))
        for b in nullspace.ensemble(R, m=n_shuffles, base_seed=base_seed)])
    q_svd = np.mean(list(nullspace.involvement_Q(
        nullspace.svd_basis(R), network.n_nodes).values()))
    return {"mean_Q_snd": float(q_snd), "mean_Q_svd": float(q_svd)}


# -- grasping cascade --------------------------------------------------------

GRASP_DEFAULTS = dict(step_size=0.05, tolerance=0.08, max_steps=600)


def _random_grasp_task(rng: np.random.Generator) -> tuple[Network, np.ndarray]:
    """Random folded arm pose and a target swung about the shoulder.

    The elbow is kept well bent so the initial pose is generic, and the
    target preserves the grip radius, exercising the arm's swing first.
    """
    shoulder = rng.uniform(0.5, np.pi - 0.5)
    elbow = rng.uniform(1.1, 1.9) * rng.choice([-1.0, 1.0])
    arm = networks.make_robot_arm(shoulder, elbow)
    grip = 0.5 * (arm.positions[3] + arm.positions[4]) - arm.positions[0]
    base_ang = float(np.arctan2(grip[1], grip[0]))
    radius = float(np.linalg.norm(grip))
    swing = rng.uniform(0.6, 1.5) * rng.choice([-1.0, 1.0])
    target = radius * np.array([np.cos(base_ang + swing),
                                np.sin(base_ang + swing)])
    return arm, target


def grasping_experiment(n_tasks: int = 100, base_seed: int = 0,
                        basis_method: str = "multiscale") -> dict:
    """Mean first-activation step per mode, largest mode labelled 1.

    The sparse motion primitives are the multiscale modes (whole arm, lower
    arm, two fingers); pass ``basis_method="SVD"`` for the dense baseline.
    Modes are ranked by the sizes of each trace's canonical basis.
    """
    rng = np.random.default_rng(base_seed)
    firsts: dict[int, list[int]] = {}
    failures = 0
    for _ in range(n_tasks):
        arm, target = _random_grasp_task(rng)
        task = control.ControlTask(arm, [3, 4], target,
                                   basis_method=basis_method,
                                   seed=int(rng.integers(2 ** 31)),
                                   **GRASP_DEFAULTS)
        trace = control.run_task(task)
        if not trace.success:
            failures += 1
            continue
        by_size = np.argsort([-s for s in trace.mode_sizes], kind="stable")
        label = {int(cid): rank + 1 for rank, cid in enumerate(by_size)}
        for cid, steps in trace.activation_times.items():
            firsts.setdefault(label[cid], []).append(steps[0])
    means = {k: float(np.mean(v)) for k, v in sorted(firsts.items())}
    return {"mean_first_activation": means, "n_tasks": n_tasks,
            "failures": failures, "basis_method": basis_method}


# -- reaching energy ---------------------------------------------------------

REACH_NETWORK = dict(dimensions=(5, 5), dilution_fraction=0.62, seed=5)


def reaching_network() -> Network:
    """Diluted lattice used for the paired reaching tasks (bottom row pinned)."""
    spec = GeneratorSpec(kind="triangular_lattice", **REACH_NETWORK)
    net = networks.generate_triangular(spec)
    net.fixed[:5] = True
    return net


def reaching_energy_comparison(n_pairs: int = 250, base_seed: int = 0) -> dict:
    """Paired reaching tasks on ``reaching_network`` with sparse and SVD motion primitives.

    Each pair shares the effector, target, and seed; only pairs where both
    methods reach the target count.  Targets are drawn within the effector's
    null-space motion directions so most tasks are completable; at most
    ``4 * n_pairs`` are drawn.
    """
    network = reaching_network()
    R = rigidity.build(network)
    svd = nullspace.svd_basis(R)
    V = svd.vectors()
    movable = sorted({n for m in svd.modes for n in m.node_support})
    if not movable:
        raise ValueError("network has no movable nodes")
    dirs = {}
    for node in movable:
        block = V[:, 2 * node: 2 * node + 2]
        _, s, vt = np.linalg.svd(block, full_matrices=False)
        dirs[node] = vt[s > 1e-8]

    rng = np.random.default_rng(base_seed)
    wins = 0
    completed = 0
    attempts = 0
    energies: list[tuple[float, float]] = []
    while completed < n_pairs and attempts < 4 * n_pairs:
        attempts += 1
        node = int(rng.choice(movable))
        ang = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0.15, 0.4)
        delta = radius * np.array([np.cos(ang), np.sin(ang)])
        proj = dirs[node].T @ (dirs[node] @ delta)
        if np.linalg.norm(proj) < 0.12:
            continue
        target = network.positions[node] + proj
        seed = int(rng.integers(2 ** 31))
        pair = {}
        for method in ("SND", "SVD"):
            task = control.ControlTask(network, [node], target, tolerance=0.05,
                                       max_steps=150, step_size=0.02,
                                       basis_method=method, seed=seed)
            trace = control.run_task(task)
            pair[method] = trace
        if pair["SND"].success and pair["SVD"].success:
            completed += 1
            energies.append((pair["SND"].total_energy, pair["SVD"].total_energy))
            if pair["SND"].total_energy < pair["SVD"].total_energy:
                wins += 1
    return {
        "pairs_completed": completed,
        "attempts": attempts,
        "snd_wins": wins,
        "win_fraction": wins / completed if completed else 0.0,
        "energies": energies,
    }


# -- rigidification ----------------------------------------------------------

# The first 10 generator seeds (5x5, dilution 0.60, top and bottom rows
# clamped) that pass ``dominant_mode_gated``: the network is floppy and the
# largest mode of its unshuffled sparse basis holds more than half of the
# participation.  The choice never looks at a stiffness gain;
# ``scan_single_link_instances`` regenerates this list.
SINGLE_LINK_INSTANCES: list[tuple[float, int, str]] = [
    (0.60, 0, "fixed_rows"),
    (0.60, 1, "fixed_rows"),
    (0.60, 4, "fixed_rows"),
    (0.60, 7, "fixed_rows"),
    (0.60, 8, "fixed_rows"),
    (0.60, 9, "fixed_rows"),
    (0.60, 10, "fixed_rows"),
    (0.60, 19, "fixed_rows"),
    (0.60, 20, "fixed_rows"),
    (0.60, 26, "fixed_rows"),
]


def single_link_instance(dilution: float, seed: int, boundary: str) -> Network:
    spec = GeneratorSpec(kind="triangular_lattice", dimensions=(5, 5),
                         dilution_fraction=dilution, seed=seed,
                         boundary=boundary)
    return networks.generate_triangular(spec)


def dominant_mode_gated(network: Network) -> bool:
    """Whether one floppy mode dominates the network's sparse basis.

    True when the unshuffled SND basis holds a mode bigger than all other
    modes together (``2 * size_s > participation``); an empty basis means a
    rigid network.  Only the geometry is read.
    """
    basis = nullspace.snd_basis(rigidity.build(network))
    if not basis.modes:
        return False
    return 2 * max(m.size_s for m in basis.modes) > basis.participation


def scan_single_link_instances() -> list[tuple[float, int, str]]:
    """First 10 generator seeds 0, 1, 2, ... passing ``dominant_mode_gated``."""
    found = []
    seed = 0
    while len(found) < 10:
        instance = (0.60, seed, "fixed_rows")
        if dominant_mode_gated(single_link_instance(*instance)):
            found.append(instance)
        seed += 1
    return found


def single_link_comparison(n_instances: int = 10, base_seed: int = 0,
                           config: SimConfig | None = None) -> dict:
    """MS-selected link gain against the best of five random candidate links.

    Runs the first ``n_instances`` entries of ``SINGLE_LINK_INSTANCES``; asking
    for more than are registered is a ``ValueError``.
    """
    if n_instances > len(SINGLE_LINK_INSTANCES):
        raise ValueError(
            f"n_instances={n_instances} exceeds the "
            f"{len(SINGLE_LINK_INSTANCES)} registered single-link instances")
    if config is None:
        config = SimConfig(steps=4000)
    rng = np.random.default_rng(base_seed)
    outcomes = []
    for k, (dilution, seed, boundary) in enumerate(
            SINGLE_LINK_INSTANCES[:n_instances]):
        net = single_link_instance(dilution, seed, boundary)
        ms_link = rigidify.ms_select_link(net, seed=seed)
        pool = [c for c in rigidify.candidate_links(net)
                if tuple(c) != tuple(ms_link)]
        picks = [pool[i] for i in rng.choice(len(pool), 5, replace=False)]
        results = rigidify.single_link_experiment(net, [ms_link] + picks, config)
        dg_ms = results[0][1]
        dg_rand = max(dg for _, dg in results[1:])
        outcomes.append({"instance": k, "dilution": dilution, "seed": seed,
                         "dg_ms": dg_ms, "dg_random_max": dg_rand,
                         "win": bool(dg_ms > dg_rand)})
    wins = sum(o["win"] for o in outcomes)
    return {"outcomes": outcomes, "wins": wins, "n_instances": len(outcomes)}


TUNING_DEFAULTS = dict(dimensions=(7, 7), dilution_fraction=0.2,
                       boundary="fixed_rows")


def tuning_comparison(n_seeds: int = 10, stop_at: int = 92,
                      config: SimConfig | None = None) -> dict:
    """Median G-vs-link-count curves for the MS and random protocols."""
    if config is None:
        config = SimConfig(steps=5000)
    medians = {}
    runs = {}
    for protocol in ("MS", "random"):
        by_total: dict[int, list[float]] = {}
        runs[protocol] = []
        for seed in range(n_seeds):
            spec = GeneratorSpec(kind="triangular_lattice", seed=seed,
                                 **TUNING_DEFAULTS)
            net = networks.generate_triangular(spec)
            run = rigidify.tune(net, protocol, seed=seed + 100,
                                stop_at=stop_at, config=config)
            runs[protocol].append(run)
            for total, g in run.g_curve:
                by_total.setdefault(total, []).append(g)
        medians[protocol] = {
            int(t): float(np.median(v)) for t, v in sorted(by_total.items())
            if len(v) == n_seeds}
    return {"medians": medians, "runs": runs}


# -- load prediction ---------------------------------------------------------

def load_prediction_experiment(n_networks: int = 5, base_seed: int = 1,
                               n_disks: int = 48, target_dof: int = 18,
                               t: float = loadpredict.DEFAULT_THRESHOLD,
                               m: int = loadpredict.DEFAULT_ENSEMBLE,
                               steps: int = 20000) -> dict:
    """Max-over-threshold matching ratio on generated jammed networks."""
    results = []
    for k in range(n_networks):
        seed = base_seed + k
        spec = GeneratorSpec(kind="bidisperse_packing", seed=seed,
                             n_disks=n_disks, target_dof=target_dof)
        net = networks.generate_bidisperse_packing(spec)
        gmap = loadpredict.globality(net, m=m, base_seed=seed)
        predicted = loadpredict.predict_loaded_edges(net, gmap, t=t)
        sim = springsim.radial_stretch(net, SimConfig(steps=steps, seed=seed))
        a, b, _ = net.edge_arrays()
        extensions = {(int(x), int(y)): float(s)
                      for x, y, s in zip(a, b, sim.scaled_extension)}
        grid = sorted({abs(v) for v in extensions.values()})
        curve, best_e, best_eta = loadpredict.threshold_sweep(
            predicted, extensions, grid, t)
        results.append({"seed": seed, "n_edges": net.n_edges,
                        "n_predicted": len(predicted),
                        "best_e": best_e, "best_eta": best_eta})
    return {"networks": results,
            "min_eta": min(r["best_eta"] for r in results)}
