"""Greedy motion-primitive controller for reaching and grasping tasks.

At every step the controller recomputes the floppy-mode basis at the current
configuration, tries every mode in both directions, applies the candidate
that most reduces the effector-to-target distance, and projects the result
back onto the edge-length constraint manifold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import multiscale, nullspace, rigidity
from .errors import FloppyNetError, ProjectionFailed
from .networks import Network
from .nullspace import ModeBasis

#: Relative edge-length violation tolerated after projection.
PROJECTION_TOL = 1e-9

#: Maximum Newton iterations when projecting onto the constraint manifold.
PROJECTION_MAX_ITER = 50

# Step-size halvings allowed before a task is declared stuck.
_MAX_HALVINGS = 6


@dataclass
class ControlTask:
    network: Network
    effectors: list[int]
    target: np.ndarray
    tolerance: float = 0.05
    max_steps: int = 200
    step_size: float | None = None     # None: 2% of the mean edge length
    basis_method: str = "SND"          # SND | SVD | multiscale
    seed: int = 0

    def __post_init__(self):
        self.target = np.asarray(self.target, float)
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not self.effectors:
            raise ValueError("need at least one effector node")
        for e in self.effectors:
            if self.network.fixed[e]:
                raise ValueError(f"effector {e} is a fixed node")
        if self.basis_method not in ("SND", "SVD", "multiscale"):
            raise ValueError(f"unknown basis method {self.basis_method!r}")


class StepRecord(NamedTuple):
    step: int
    mode_id: int          # canonical mode index (step-0 basis, ascending size)
    activation: float     # signed step size actually applied
    distance: float       # effector distance after the step
    energy: float         # kinetic energy of the step, unit node mass


@dataclass
class ControlTrace:
    records: list[StepRecord]
    total_energy: float
    activation_times: dict[int, list[int]]
    success: bool
    final_positions: np.ndarray
    recanonicalized_at: list[int] = field(default_factory=list)
    mode_sizes: list[int] = field(default_factory=list)  # step-0 canonical modes


def effector_distance(positions: np.ndarray, effectors, target) -> float:
    """Mean distance from the effector nodes to the target point."""
    d = positions[list(effectors)] - np.asarray(target)
    return float(np.linalg.norm(d, axis=1).mean())


def project_to_manifold(positions: np.ndarray, network: Network,
                        tol: float = PROJECTION_TOL,
                        max_iter: int = PROJECTION_MAX_ITER) -> np.ndarray:
    """Newton projection of free coordinates back onto the edge constraints."""
    x = positions.copy()
    a, b, rest = network.edge_arrays()
    if len(a) == 0:
        return x
    free = np.flatnonzero(~network.fixed)
    rows = np.arange(len(a))
    for _ in range(max_iter):
        d = x[a] - x[b]
        lengths = np.linalg.norm(d, axis=1)
        g = lengths - rest
        if np.abs(g / rest).max() <= tol:
            return x
        unit = d / lengths[:, None]
        jac = np.zeros((len(a), network.n_nodes, 2))   # edge x node x axis
        jac[rows, a] = unit
        jac[rows, b] = -unit
        dx, *_ = np.linalg.lstsq(jac[:, free].reshape(len(a), -1), -g, rcond=None)
        x[free] += dx.reshape(-1, 2)
    raise ProjectionFailed(
        f"constraint violation {np.abs(g / rest).max():.3g} after "
        f"{max_iter} Newton iterations")


def match_modes(current: ModeBasis, reference: ModeBasis) -> dict[int, int]:
    """Greedy maximum-|cosine| assignment of current modes to reference modes.

    Sign flips are ignored; every reference index is used at most once.
    """
    if len(current) != len(reference):
        raise FloppyNetError(
            f"mode count mismatch: {len(current)} vs {len(reference)}")
    k = len(current)
    cos = np.abs(current.vectors() @ reference.vectors().T)
    assign: dict[int, int] = {}
    used_rows, used_cols = set(), set()
    order = np.dstack(np.unravel_index(np.argsort(-cos, axis=None), cos.shape))[0]
    for i, j in order:
        i, j = int(i), int(j)
        if i in used_rows or j in used_cols:
            continue
        assign[i] = j
        used_rows.add(i)
        used_cols.add(j)
        if len(assign) == k:
            break
    return assign


def _compute_basis(network: Network, method: str, seed: int) -> ModeBasis:
    if method == "multiscale":
        return multiscale.multiscale_basis(network, seed=seed)
    R = rigidity.build(network)
    if method == "SND":
        return nullspace.snd_basis(R, shuffle_seed=seed)
    return nullspace.svd_basis(R)


def run_task(task: ControlTask) -> ControlTrace:
    """Greedy mode activation until the effectors reach the target.

    Fails (``success=False``) when no mode improves the distance even after
    halving the step size ``6`` times.
    """
    net = task.network.copy()
    x = net.positions
    if task.step_size is None:
        alpha = 0.02 * float(net.edge_lengths().mean()) if net.n_edges else 0.02
    else:
        alpha = task.step_size
    halvings_left = _MAX_HALVINGS

    dist = effector_distance(x, task.effectors, task.target)
    records: list[StepRecord] = []
    activation: dict[int, list[int]] = {}
    recanon: list[int] = []
    canonical: ModeBasis | None = None
    mode_sizes: list[int] = []
    success = dist <= task.tolerance

    step = 0
    while not success and step < task.max_steps:
        working = net.with_positions(x)
        basis = _compute_basis(working, task.basis_method, task.seed + step)
        if not basis.modes:
            break
        if canonical is None:
            canonical = basis
            mode_sizes = [m.size_s for m in basis.modes]
            ids = {i: i for i in range(len(basis))}
        elif len(basis) != len(canonical):
            canonical = basis
            ids = {i: i for i in range(len(basis))}
            recanon.append(step)
        else:
            ids = match_modes(basis, canonical)

        applied = False
        while not applied:
            best = None
            for mi, mode in enumerate(basis.modes):
                v = mode.vector.reshape(-1, 2)
                for sign in (1.0, -1.0):
                    trial = effector_distance(x + sign * alpha * v,
                                              task.effectors, task.target)
                    if trial < dist:
                        key = (trial, mode.size_s, ids[mi], 0 if sign > 0 else 1)
                        if best is None or key < best[0]:
                            best = (key, mi, sign)
            if best is not None:
                _, mi, sign = best
                v = basis.modes[mi].vector.reshape(-1, 2)
                x_new = project_to_manifold(x + sign * alpha * v, working)
                new_dist = effector_distance(x_new, task.effectors, task.target)
                if new_dist < dist:
                    energy = float(0.5 * ((x_new - x) ** 2).sum())
                    records.append(StepRecord(step, ids[mi], sign * alpha,
                                              new_dist, energy))
                    activation.setdefault(ids[mi], []).append(step)
                    x = x_new
                    dist = new_dist
                    applied = True
                    continue
            if halvings_left == 0:
                break
            alpha *= 0.5
            halvings_left -= 1
        if not applied:
            break
        success = dist <= task.tolerance
        step += 1

    total = float(sum(r.energy for r in records))
    return ControlTrace(records, total, activation, success, x, recanon,
                        mode_sizes)
