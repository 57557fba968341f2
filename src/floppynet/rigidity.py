"""Constraint Jacobian assembly for embedded networks.

The rigidity matrix is a plain ``(m, 2N)`` numpy array with unit-norm rows.
Each edge contributes one row (the gradient of the squared-length
constraint) and each fixed node two single-entry anchor rows, one per
coordinate axis.  Scaling the rows leaves the null space unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateEdgeError
from .networks import Network

#: Relative singular-value cutoff for rank decisions.
RANK_TOL = 1e-9


def build(network: Network) -> np.ndarray:
    """Assemble the unit-row constraint Jacobian of ``network``.

    Row order is part of the contract: one row per edge, in
    ``network.edges`` order, then an x row and a y row for each fixed node,
    in ascending node order.  Edge rows carry ``2(x_p - x_q)`` on the
    columns of endpoint ``p`` and the negative on ``q``; anchor rows carry a
    single entry on the node's x or y column.  Every row is then scaled to
    unit Euclidean norm.
    """
    n = network.n_coords
    rows = []
    for e in network.edges:
        d = network.positions[e.a] - network.positions[e.b]
        if np.linalg.norm(d) <= 1e-12:
            raise DegenerateEdgeError(f"edge ({e.a},{e.b}) has zero length")
        row = np.zeros(n)
        row[2 * e.a: 2 * e.a + 2] = 2.0 * d
        row[2 * e.b: 2 * e.b + 2] = -2.0 * d
        rows.append(row)
    for node in np.flatnonzero(network.fixed):
        for axis in (0, 1):
            row = np.zeros(n)
            row[2 * node + axis] = 1.0
            rows.append(row)
    if not rows:
        return np.zeros((0, n))
    R = np.array(rows)
    R /= np.linalg.norm(R, axis=1)[:, None]
    return R


def shuffle_rows(R: np.ndarray, seed: int) -> np.ndarray:
    """Seeded uniform permutation of the rows; the null space is unchanged."""
    return R[np.random.default_rng(seed).permutation(R.shape[0])]


def numeric_rank(R: np.ndarray) -> int:
    """Count of singular values above ``RANK_TOL`` times the largest."""
    if R.shape[0] == 0:
        return 0
    return rank_from_singular_values(np.linalg.svd(R, compute_uv=False))


def rank_from_singular_values(s: np.ndarray) -> int:
    """Count of descending singular values ``s`` above ``RANK_TOL`` times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > RANK_TOL * s[0]).sum())


def dof(R: np.ndarray) -> int:
    """Null-space dimension: total coordinates minus numeric rank."""
    return R.shape[1] - numeric_rank(R)
