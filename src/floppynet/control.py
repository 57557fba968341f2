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
from .errors import FloppyNetError, ParameterError, ProjectionFailed
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
        if self.target.shape != (2,) or not np.isfinite(self.target).all():
            raise ParameterError(f"target must be a finite point (x, y), not "
                                 f"{self.target.tolist()}")
        if not 0 < self.tolerance < np.inf:
            raise ParameterError(f"tolerance must be positive and finite, "
                                 f"not {self.tolerance}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, not {self.max_steps}")
        if self.step_size is not None and not 0 < self.step_size < np.inf:
            raise ParameterError(f"step_size must be positive and finite, "
                                 f"not {self.step_size}")
        if not self.effectors:
            raise ParameterError("need at least one effector node")
        for e in self.effectors:
            if not 0 <= e < self.network.n_nodes:
                raise ParameterError(f"effector {e} is not a node of the network")
            if self.network.fixed[e]:
                raise ParameterError(f"effector {e} is a fixed node")
        if self.basis_method not in ("SND", "SVD", "multiscale"):
            raise ParameterError(f"unknown basis method {self.basis_method!r}")


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


def project_to_manifold(positions: np.ndarray, network: Network) -> np.ndarray:
    """Newton projection of free coordinates back onto the edge constraints,
    to ``PROJECTION_TOL`` within ``PROJECTION_MAX_ITER`` iterations."""
    x = positions.copy()
    a, b, rest = network.edge_arrays()
    if len(a) == 0:
        return x
    free = np.flatnonzero(~network.fixed)
    rows = np.arange(len(a))
    for _ in range(PROJECTION_MAX_ITER):
        d = x[a] - x[b]
        lengths = np.linalg.norm(d, axis=1)
        g = lengths - rest
        if np.abs(g / rest).max() <= PROJECTION_TOL:
            return x
        unit = d / lengths[:, None]
        jac = np.zeros((len(a), network.n_nodes, 2))   # edge x node x axis
        jac[rows, a] = unit
        jac[rows, b] = -unit
        dx, *_ = np.linalg.lstsq(jac[:, free].reshape(len(a), -1), -g, rcond=None)
        x[free] += dx.reshape(-1, 2)
    raise ProjectionFailed(
        f"constraint violation {np.abs(g / rest).max():.3g} after "
        f"{PROJECTION_MAX_ITER} Newton iterations")


def match_modes(current: ModeBasis, reference: ModeBasis) -> np.ndarray:
    """Greedy maximum-|cosine| assignment of current modes to reference modes.

    Entry ``i`` of the result is the reference index of current mode ``i``.
    Sign flips are ignored; every reference index is used once.
    """
    if len(current) != len(reference):
        raise FloppyNetError(
            f"mode count mismatch: {len(current)} vs {len(reference)}")
    cos = np.abs(current.vectors() @ reference.vectors().T)
    match = np.full(len(current), -1)
    taken = np.zeros(len(current), dtype=bool)
    for i, j in zip(*np.unravel_index(np.argsort(-cos, axis=None), cos.shape)):
        if match[i] < 0 and not taken[j]:
            match[i] = j
            taken[j] = True
    return match


def _compute_basis(network: Network, method: str, seed: int) -> ModeBasis:
    if method == "multiscale":
        return multiscale.multiscale_basis(network, seed=seed)
    R = rigidity.build(network)
    if method == "SND":
        return nullspace.snd_basis(R, shuffle_seed=seed)
    return nullspace.svd_basis(R)


def run_task(task: ControlTask) -> ControlTrace:
    """Greedy mode activation until the effectors reach the target.

    Each attempt moves the effectors along every mode in both directions at
    once and takes the closest trial, ties broken by mode size, canonical id
    and sign (+ first).  Fails (``success=False``) when no mode improves the
    distance even after halving the step size ``6`` times.
    """
    net = task.network.copy()
    x = net.positions
    if task.step_size is None:
        alpha = 0.02 * float(net.edge_lengths().mean()) if net.n_edges else 0.02
    else:
        alpha = task.step_size
    halvings_left = _MAX_HALVINGS
    eff = list(task.effectors)

    dist = effector_distance(x, eff, task.target)
    records: list[StepRecord] = []
    activation: dict[int, list[int]] = {}
    restarts: list[int] = []            # steps where the canonical basis was (re)set
    canonical: ModeBasis | None = None
    mode_sizes: list[int] = []
    success = dist <= task.tolerance

    step = 0
    while not success and step < task.max_steps:
        working = net.with_positions(x)
        basis = _compute_basis(working, task.basis_method, task.seed + step)
        k = len(basis)
        if not k:
            break
        sizes = [m.size_s for m in basis.modes]
        if canonical is None or k != len(canonical):
            canonical, ids = basis, list(range(k))
            restarts.append(step)
            mode_sizes = mode_sizes or sizes
        else:
            ids = match_modes(basis, canonical).tolist()
        V = basis.vectors().reshape(k, -1, 2)
        # tie-break keys of the flat (sign, mode) trials, last key first
        keys = (np.repeat([0, 1], k), np.tile(ids, 2), np.tile(sizes, 2))

        applied = False
        while not applied:
            signed = np.array([alpha, -alpha])
            reach = x[eff] + signed[:, None, None, None] * V[:, eff]
            trial = np.linalg.norm(reach - task.target, axis=-1).mean(axis=-1).ravel()
            best = np.lexsort(keys + (trial,))[0]
            if trial[best] < dist:
                s, mi = divmod(int(best), k)
                x_new = project_to_manifold(x + signed[s] * V[mi], working)
                new_dist = effector_distance(x_new, eff, task.target)
                if new_dist < dist:
                    energy = float(0.5 * ((x_new - x) ** 2).sum())
                    records.append(StepRecord(step, ids[mi], float(signed[s]),
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
    return ControlTrace(records, total, activation, success, x, restarts[1:],
                        mode_sizes)
