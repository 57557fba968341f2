"""Constraint Jacobian assembly for embedded networks.

The rigidity matrix is a plain ``(m, 2N)`` numpy array with unit-norm rows.
Each edge contributes one row (the gradient of the squared-length
constraint) and each fixed node two single-entry anchor rows, one per
coordinate axis.  Scaling the rows leaves the null space unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateEdgeError

if TYPE_CHECKING:
    from .networks import Network

#: Relative singular-value cutoff for rank decisions.
RANK_TOL = 1e-9


def assemble(positions: np.ndarray, pairs, fixed) -> np.ndarray:
    """Unit-row constraint Jacobian of bars ``pairs`` between ``positions``.

    Row order is part of the contract: one row per ``(p, q)`` pair, in
    order, then an x row and a y row for each node flagged in the boolean
    mask ``fixed``, in ascending node order.  Bar rows carry
    ``2(x_p - x_q)`` on the columns of ``p`` and the negative on ``q``;
    anchor rows carry a single entry on the node's x or y column.  Every
    row is then scaled to unit Euclidean norm.  A bar of zero length raises
    ``DegenerateEdgeError`` naming the first such pair.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    anchored = np.flatnonzero(fixed)
    p, q = pairs[:, 0], pairs[:, 1]
    d = positions[p] - positions[q]
    # row norms as the reduction np.linalg.norm(axis=1) runs, without its dispatch
    degenerate = (np.sqrt((d * d).sum(axis=1)) <= 1e-12).nonzero()[0]
    if degenerate.size:
        k = degenerate[0]
        raise DegenerateEdgeError(f"edge ({p[k]},{q[k]}) has zero length")
    m = len(pairs)
    R = np.zeros((m + 2 * len(anchored), 2 * len(positions)))
    bars = np.arange(m)[:, None]
    axes = np.arange(2)
    R[bars, 2 * p[:, None] + axes] = 2.0 * d
    R[bars, 2 * q[:, None] + axes] = -2.0 * d
    R[np.arange(m, R.shape[0]), (2 * anchored[:, None] + axes).ravel()] = 1.0
    R /= np.sqrt((R * R).sum(axis=1))[:, None]
    return R


def build(network: Network) -> np.ndarray:
    """``assemble`` over the edges of ``network``: edge ``k`` is row ``k``."""
    ends = np.array(network.edges).reshape(-1, 3)[:, :2]
    return assemble(network.positions, ends, network.fixed)


def shuffle_rows(R: np.ndarray, seed: int) -> np.ndarray:
    """Seeded uniform permutation of the rows; the null space is unchanged."""
    return R[np.random.default_rng(seed).permutation(R.shape[0])]


def rank_from_singular_values(s: np.ndarray) -> int:
    """Count of descending singular values ``s`` above ``RANK_TOL`` times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > RANK_TOL * s[0]).sum())


def dof(R: np.ndarray) -> int:
    """Null-space dimension: total coordinates minus the count of singular
    values above ``RANK_TOL`` times the largest."""
    if R.shape[0] == 0:
        return R.shape[1]
    return R.shape[1] - rank_from_singular_values(np.linalg.svd(R, compute_uv=False))
