"""Output checks made apart from the program.

Each check returns a list of problems (empty when the output is right).  The
references are computed here from positions, edges and fixed flags, or are
properties the method must have; no check compares against a saved output.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Relative singular-value cutoff for the rank of a Jacobian (the rigidity
# matrices benchmarked have a gap of about 1e-2 against 1e-15 at the rank).
JAC_RTOL = 1e-9

# Absolute singular-value cutoff for the rank of stacked unit mode vectors
# (smallest basis singular value seen is about 1e-2, round-off about 1e-13).
BASIS_ATOL = 1e-6

# A mode may violate no constraint row (unit norm) by more than this.
RESIDUAL_TOL = 1e-8

# The same bound for SVD modes: ``svd_basis`` zeroes entries below 1e-8 after
# the SVD, and a unit row has at most four nonzero entries, so the zeroing
# alone can raise a residual to 2e-8.
SVD_RESIDUAL_TOL = 2e-8

# A mode vector's norm may differ from 1 by at most this.
NORM_TOL = 1e-10

# Tolerance of float quantities that the check recomputes by the same formula.
RECOMPUTE_RTOL = 1e-12

# A lattice bond is a node pair at unit distance, to within this.
BOND_TOL = 1e-9


def jacobian(positions, edges, fixed) -> np.ndarray:
    """Row-normalised constraint Jacobian: one row per edge, two per fixed node."""
    positions = np.asarray(positions, float)
    n = 2 * len(positions)
    edges = np.asarray(edges, int).reshape(-1, 2)
    anchored = np.flatnonzero(fixed)
    rows = np.zeros((len(edges) + 2 * len(anchored), n))
    r = np.arange(len(edges))
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    d = d / np.linalg.norm(d, axis=1)[:, None]
    for axis in (0, 1):
        rows[r, 2 * edges[:, 0] + axis] = d[:, axis]
        rows[r, 2 * edges[:, 1] + axis] = -d[:, axis]
    k = np.arange(len(anchored))
    rows[len(edges) + 2 * k, 2 * anchored] = 1.0
    rows[len(edges) + 2 * k + 1, 2 * anchored + 1] = 1.0
    return rows


def network_jacobian(net) -> np.ndarray:
    return jacobian(net.positions, [(e.a, e.b) for e in net.edges], net.fixed)


def rank(matrix, rtol=None, atol=None) -> int:
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    cut = atol if atol is not None else rtol * s[0]
    return int((s > cut).sum())


def null_dim(jac: np.ndarray) -> int:
    return jac.shape[1] - rank(jac, rtol=JAC_RTOL)


# -- decompose ----------------------------------------------------------------

def check_basis(label: str, basis, jac: np.ndarray, dof: int,
                residual_tol: float = RESIDUAL_TOL) -> list[str]:
    """Mode count, unit norm, null-space residual, support size and rank."""
    problems = []
    if len(basis.modes) != dof:
        problems.append(f"{label}: {len(basis.modes)} modes, DoF is {dof}")
    for k, mode in enumerate(basis.modes):
        v = mode.vector
        if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
            problems.append(f"{label} mode {k}: norm {np.linalg.norm(v)!r}")
        if jac.shape[0] and np.abs(jac @ v).max() > residual_tol:
            problems.append(f"{label} mode {k}: residual {np.abs(jac @ v).max():.3g}")
        if mode.size_s != np.count_nonzero(v):
            problems.append(f"{label} mode {k}: size {mode.size_s}, "
                            f"{np.count_nonzero(v)} nonzero entries")
    if basis.modes and rank(basis.vectors(), atol=BASIS_ATOL) != dof:
        problems.append(f"{label}: modes do not span {dof} dimensions")
    return problems


def check_decompose(net, out: dict) -> list[str]:
    jac = network_jacobian(net)
    dof = null_dim(jac)
    problems = []
    if out["dof"] != dof:
        problems.append(f"dof {out['dof']}, Jacobian rank gives {dof}")
    problems += check_basis("snd", out["snd"], jac, dof)
    problems += check_basis("svd", out["svd"], jac, dof, SVD_RESIDUAL_TOL)
    problems += check_basis("multiscale", out["multiscale"], jac, dof)
    if dof:
        both = np.vstack([out["snd"].vectors(), out["svd"].vectors()])
        if rank(both, atol=BASIS_ATOL) != dof:
            problems.append("SND and SVD modes together exceed the DoF")
    p_snd = sum(np.count_nonzero(m.vector) for m in out["snd"].modes)
    p_svd = sum(np.count_nonzero(m.vector) for m in out["svd"].modes)
    if dof and not p_snd < p_svd:
        problems.append(f"SND participation {p_snd} not below SVD {p_svd}")
    return problems


# -- control ------------------------------------------------------------------

def effector_distance(positions, effectors, target) -> float:
    d = np.asarray(positions)[list(effectors)] - np.asarray(target)
    return float(np.mean(np.sqrt((d ** 2).sum(axis=1))))


def check_control(task, trace, projection_tol: float) -> list[str]:
    net = task.network
    x = np.asarray(trace.final_positions)
    problems = []
    for e in net.edges:
        length = math.dist(x[e.a], x[e.b])
        if abs(length - e.rest_length) > projection_tol * e.rest_length:
            problems.append(f"edge ({e.a},{e.b}) length {length!r}, rest {e.rest_length!r}")
            break
    if not np.array_equal(x[net.fixed], net.positions[net.fixed]):
        problems.append("a fixed node moved")
    start = effector_distance(net.positions, task.effectors, task.target)
    final = effector_distance(x, task.effectors, task.target)
    dists = [start] + [r.distance for r in trace.records]
    if any(b >= a for a, b in zip(dists, dists[1:])):
        problems.append("record distances do not strictly decrease")
    if not math.isclose(dists[-1], final, rel_tol=RECOMPUTE_RTOL, abs_tol=1e-15):
        problems.append(f"last distance {dists[-1]!r}, final positions give {final!r}")
    if trace.success != (final <= task.tolerance):
        problems.append(f"success={trace.success} at distance {final!r}, "
                        f"tolerance {task.tolerance}")
    total = math.fsum(r.energy for r in trace.records)
    if not math.isclose(trace.total_energy, total, rel_tol=RECOMPUTE_RTOL, abs_tol=1e-15):
        problems.append(f"total_energy {trace.total_energy!r}, records sum to {total!r}")
    return problems


# -- rigidify -----------------------------------------------------------------

def unused_bonds(net) -> set[tuple[int, int]]:
    """Node pairs at unit distance that are not edges (the unused lattice bonds)."""
    p = net.positions
    d = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))
    i, j = np.nonzero(np.triu(np.abs(d - 1.0) <= BOND_TOL, k=1))
    existing = {(e.a, e.b) for e in net.edges}
    return {(int(a), int(b)) for a, b in zip(i, j)} - existing


def _check_links(links, pool) -> list[str]:
    problems = []
    links = [tuple(sorted(link)) for link in links]
    if len(set(links)) != len(links):
        problems.append("a link is added twice")
    strays = [link for link in links if link not in pool]
    if strays:
        problems.append(f"links {strays[:3]} are not unused lattice bonds")
    return problems


def check_tune(net, run, stop_at: int) -> list[str]:
    pool = unused_bonds(net)
    problems = _check_links(run.link_sequence, pool)
    if len(run.link_sequence) != min(stop_at, len(pool)):
        problems.append(f"{len(run.link_sequence)} links added, expected "
                        f"{min(stop_at, len(pool))}")
    counts = [c for c, _ in run.g_curve]
    if counts != [net.n_edges + k for k in range(len(run.link_sequence) + 1)]:
        problems.append(f"edge counts {counts} do not rise by one per link")
    bad = [g for _, g in run.g_curve if not (math.isfinite(g) and g >= 0.0)]
    if bad:
        problems.append(f"shear moduli {bad[:3]} are not finite and >= 0")
    return problems


def check_probe(net, candidates, result) -> list[str]:
    problems = _check_links(candidates, unused_bonds(net))
    if [tuple(link) for link, _ in result] != [tuple(c) for c in candidates]:
        problems.append("probe results do not follow the candidate links")
    bad = [dg for _, dg in result if not math.isfinite(dg)]
    if bad:
        problems.append(f"gains {bad[:3]} are not finite")
    return problems


# -- predict ------------------------------------------------------------------

def matching_ratio(predicted, extensions: dict, e: float) -> float:
    """Share of edges on which prediction and ``|extension| > e`` agree."""
    predicted = {tuple(sorted(p)) for p in predicted}
    agree = sum((k in predicted) == (abs(v) > e) for k, v in extensions.items())
    return agree / len(extensions)


def check_predict(out: dict, target_dof: int, contact_tol: float) -> list[str]:
    net = out["network"]
    problems = []
    dof = null_dim(network_jacobian(net))
    if dof != target_dof:
        problems.append(f"packing DoF {dof}, target {target_dof}")
    radii = np.array(json.loads(net.metadata["radii"]))
    edges = {(e.a, e.b) for e in net.edges}
    for a, b in edges:
        if math.dist(net.positions[a], net.positions[b]) > (1 + contact_tol) * (radii[a] + radii[b]):
            problems.append(f"edge ({a},{b}) joins disks that do not touch")
            break
    if not set(out["predicted"]) <= edges:
        problems.append("a predicted link is not an edge")
    sim = out["sim"]
    boundary = net.positions[net.fixed]
    diameter = 2.0 * np.sqrt(((boundary - boundary.mean(axis=0)) ** 2).sum(axis=1)).max()
    for k, e in enumerate(net.edges):
        ext = math.dist(sim.positions[e.a], sim.positions[e.b]) - e.rest_length
        if not math.isclose(sim.scaled_extension[k], ext / diameter, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"edge ({e.a},{e.b}) extension does not match the final positions")
            break
    extensions = out["extensions"]
    if set(extensions) != edges:
        problems.append("extensions do not cover the edges")
        return problems
    best_e, best_eta = out["best_e"], out["best_eta"]
    eta = matching_ratio(out["predicted"], extensions, best_e)
    if eta != best_eta:
        problems.append(f"eta at e={best_e!r} is {eta!r}, program gives {best_eta!r}")
    if best_eta != max(v for _, v in out["curve"]):
        problems.append("best eta is not the maximum of the sweep")
    return problems
